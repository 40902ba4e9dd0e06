import os
from pathlib import Path

import numpy as np
import pytest

from readoutkit import SimConfig, generate_dataset


@pytest.fixture(scope="session")
def quiet_config():
    """Fast, deterministic settings: short traces, no decay, mild noise."""
    return SimConfig(
        duration=200.0,
        sample_rate=2.0,
        t1=(None, None),
        noise_sigma=2.0,
        seed=11,
    )


@pytest.fixture(scope="session")
def quiet_dataset(quiet_config):
    return generate_dataset(quiet_config, shots_per_state=60)


@pytest.fixture(scope="session")
def decaying_config():
    return SimConfig(
        duration=200.0,
        sample_rate=2.0,
        t1=(400.0, 300.0),
        noise_sigma=2.0,
        seed=13,
    )


@pytest.fixture(scope="session")
def decaying_dataset(decaying_config):
    return generate_dataset(decaying_config, shots_per_state=60)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


ROOT = Path(__file__).resolve().parent.parent


def pytest_report_header(config):
    """State what produced the run's numbers: numpy, its BLAS, its SIMD
    targets (float32 ``tanh`` may take another code path on a CPU with other
    features), and the thread-count variables (a06 trains at the default
    count); and the size of the code, as newlines in the Python sources
    under ``src/``, ``tests/`` and ``perfbench/``."""
    try:
        numpy_config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 takes no mode
        numpy_config = {}
    blas = numpy_config.get("Build Dependencies", {}).get("blas", {})
    simd = numpy_config.get("SIMD Extensions", {})
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    lines = {
        d: sum(p.read_bytes().count(b"\n") for p in (ROOT / d).rglob("*.py"))
        for d in ("src", "tests", "perfbench")
    }
    return [
        f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}",
        "SIMD: baseline " + " ".join(simd.get("baseline", ["?"]))
        + ", found " + (" ".join(simd.get("found", [])) or "none"),
        "threads: " + (" ".join(f"{k}={v}" for k, v in threads.items()) or "no *_NUM_THREADS set"),
        "lines: " + ", ".join(f"{d}/ {n}" for d, n in lines.items()),
    ]


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collects one verdict line per acceptance check, echoed after the run."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
