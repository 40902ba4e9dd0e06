"""Fast self-check of the benchmark at toy sizes (about ten seconds).

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
checks that the last line has the contract's keys and exactly the metrics
``BENCHMARK.json`` names, with their units; that the report lines name every
end-to-end metric of that workload with its unit; and that a copy of the
benchmark without the package sources exits non-zero without a result, and
that the traced run's wrappers are removed again when it ends.
Output correctness at toy sizes is not checked: the models are barely
trained there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COMMON = {"setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio"}
REPORTED = {
    "headline": {
        "headline_s": "s",
        "train_shot_epochs_per_s": "1/s",
        "gmm_fidelity": "ratio",
        "lstm_fidelity": "ratio",
        "fidelity_gap": "ratio",
        "transition_share": "ratio",
    },
    "classify": {
        "classify_shots_per_s": "1/s",
        "predict_one_p50_ms": "ms",
        "predict_one_p99_ms": "ms",
    },
    "ingest": {"ingest_shots_per_s": "1/s"},
}


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_result(workload, trace, proc, expected, problems):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last-line keys {sorted(last)}")
    if not (isinstance(last["attempted"], int) and last["attempted"] >= 1):
        problems.append(f"{where}: attempted {last['attempted']!r}")
    if not isinstance(last["failed"], int):
        problems.append(f"{where}: failed {last['failed']!r}")
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))} "
                        f"or units {[k for k in got if got[k] != expected.get(k)]}")
    for k, v in last["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: {k} is not a number")

    reported = {}
    for ln in lines[:-1]:
        parts = ln.split()
        if len(parts) == 4 and parts[0] == workload:
            reported[parts[1]] = parts[3]
    wanted = {**COMMON, **REPORTED[workload]}
    if trace:
        wanted.update(expected)
    for name, unit in wanted.items():
        if reported.get(name) != unit:
            problems.append(f"{where}: report line for {name} [{unit}] missing or wrong: {reported.get(name)}")


def check_without_sources(bench, problems):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run([*bench["command"][1:], "--workload", "ingest", "--seed", "0",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without sources: expected a non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_restored(problems):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    owners = [tracing._sim, tracing._dataio, tracing._dsp, tracing._pipeline, tracing._nn_train,
              tracing.LstmNetwork, tracing.DenseNetwork, tracing.Adam, tracing.GmmClassifier]
    before = [dict(vars(o)) for o in owners]

    def changed():
        return sum(vars(o).get(k) is not v for o, b in zip(owners, before) for k, v in b.items())

    with tracing.instrumented(tracing.Tracer()):
        installed = changed()
    if installed == 0 or changed():
        problems.append(f"wrappers: {installed} installed, {changed()} left after the traced run")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(names) != sorted(REPORTED):
        problems.append(f"BENCHMARK.json workloads {names}")
    for workload in names:
        for trace in (0, 1):
            proc = run([*bench["command"][1:], "--workload", workload, "--seed", "0",
                        "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"])
            check_result(workload, trace, proc, expected[trace], problems)
    check_without_sources(bench, problems)
    check_restored(problems)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
