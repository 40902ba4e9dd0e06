"""Fuzzed input to the dataset, model and config loaders.

The contract under test: whatever the bytes or values, only
``ReadoutKitError`` subclasses escape a loader, and the CLI answers a bad
input with exit 2 or 4, never a traceback.  A model file is refused only
as corrupt (``FileFormatError``, exit 4).  The Hypothesis settings are
derandomized with a bounded example count, so every run tries the same
inputs and the module takes a few seconds.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutkit import SimConfig, generate_dataset, load_dataset, save_dataset
from readoutkit.cli import main
from readoutkit.dataio import DATASET_MAGIC, sidecar_path
from readoutkit.errors import FileFormatError, ReadoutKitError
from readoutkit.nn import LstmNetwork, lstm_param_count
from readoutkit.nn.dense import dense_param_count
from readoutkit.nn.serialize import MODEL_MAGIC, load_model, save_model
from readoutkit.pipeline import standard_pipelines, train_pipeline
from readoutkit.sim import STATES

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _cli(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(args))


def _loads_or_refuses(load) -> bool:
    """True if ``load()`` returned, False if it raised a ``ReadoutKitError``;
    any other exception fails the test."""
    try:
        load()
    except ReadoutKitError:
        return False
    return True


class _Files(dict):
    def __repr__(self):  # keeps the file bytes out of Hypothesis reports
        return "files"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cfg = SimConfig(duration=20.0, t1=(None, None), noise_sigma=2.0, seed=3)
    data = d / "shots.rkd"
    save_dataset(generate_dataset(cfg, shots_per_state=10), data)
    model = d / "gmm.rkm"
    train_pipeline(load_dataset(data).shots, standard_pipelines(0.1)["gmm"]).save(model)
    lstm = d / "lstm.rkm"
    save_model(LstmNetwork(input_dim=2, hidden=(3,), output_dim=3), lstm)
    return _Files(
        dir=d,
        data=data,
        data_bytes=data.read_bytes(),
        data_sidecar=sidecar_path(data).read_bytes(),
        model=model,
        model_bytes=model.read_bytes(),
        model_sidecar=sidecar_path(model).read_bytes(),
        lstm_bytes=lstm.read_bytes(),
    )


def _flip(raw: bytes, bits) -> bytes:
    out = bytearray(raw)
    for b in bits:
        out[(b // 8) % len(out)] ^= 1 << (b % 8)
    return bytes(out)


def _check_dataset(files, raw: bytes, regenerate: bool):
    """A dataset that loads holds only labels of the states, and a gmm model
    evaluates on it or refuses it (exit 2 or 4)."""
    path = files["dir"] / "fuzzed.rkd"
    path.write_bytes(raw)
    sidecar_path(path).write_bytes(files["data_sidecar"])
    try:
        dataset = load_dataset(path, regenerate=regenerate)
    except ReadoutKitError:
        dataset = None
    if dataset is not None:
        assert set(dataset.labels.tolist()) <= set(STATES)
        assert _cli("evaluate", "--model", str(files["model"]), "--data", str(path)) in (0, 2, 4)
    if not regenerate:
        assert _cli("inspect", "--data", str(path)) in ((0,) if dataset is not None else (2, 4))


@FUZZ
@given(cut=st.integers(0, 5000), regenerate=st.booleans())
def test_truncated_dataset_files(files, cut, regenerate):
    raw = files["data_bytes"]
    _check_dataset(files, raw[: min(cut, len(raw) - 1)], regenerate)


@FUZZ
@example(bits=[36 * 8 + 2], regenerate=False)  # the first record's label byte 0 -> 4
@given(
    bits=st.lists(st.integers(0, 36 * 8 - 1), min_size=1, max_size=3)
    | st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    regenerate=st.booleans(),
)
def test_bit_flipped_dataset_files(files, bits, regenerate):
    _check_dataset(files, _flip(files["data_bytes"], bits), regenerate)


@FUZZ
@given(
    count=st.integers(0, 4) | st.integers(0, 2**64 - 1),
    n_samples=st.integers(0, 8) | st.integers(0, 2**32 - 1),
    rate=st.floats(),
    exact=st.booleans(),
    extra=st.integers(0, 40),
)
def test_synthetic_dataset_headers(files, count, n_samples, rate, exact, extra):
    """Valid magic and version, any counts: the size check and the record
    dtype see every combination (bit flips cover the magic and version)."""
    size = count * (2 + 4 * n_samples)
    body = bytes(size if exact and size <= 4096 else extra)
    path = files["dir"] / "header.rkd"
    path.write_bytes(struct.pack("<12sIQId", DATASET_MAGIC, 1, count, n_samples, rate) + body)
    if not _loads_or_refuses(lambda: load_dataset(path)):
        assert _cli("inspect", "--data", str(path)) in (2, 4)


def _check_model(files, raw: bytes):
    """A model file either loads or is refused as corrupt: exit 4."""
    path = files["dir"] / "fuzzed.rkm"
    path.write_bytes(raw)
    sidecar_path(path).write_bytes(files["model_sidecar"])
    try:
        load_model(path)
    except FileFormatError:
        assert _cli("evaluate", "--model", str(path), "--data", str(files["data"])) == 4


@pytest.mark.parametrize("which", ["model_bytes", "lstm_bytes"])
def test_every_truncated_model_file(files, which):
    raw = files[which]
    for cut in range(len(raw)):
        path = files["dir"] / "cut.rkm"
        path.write_bytes(raw[:cut])
        assert not _loads_or_refuses(lambda: load_model(path)), cut


@FUZZ
@given(
    which=st.sampled_from(["model_bytes", "lstm_bytes"]),
    bits=st.lists(st.integers(0, 120 * 8), min_size=1, max_size=3)
    | st.lists(st.integers(0, 10**5), min_size=1, max_size=3),
)
def test_bit_flipped_model_files(files, which, bits):
    _check_model(files, _flip(files[which], bits))


ARCH_KEYS = [
    "kind", "n_classes", "dim", "input_dim", "hidden", "output_dim", "output", "output_bias"
]
ARCH_VALUES = (
    st.sampled_from(["gmm", "lstm", "dense", "softmax", "sigmoid"])
    | st.integers(-1, 4)
    | st.lists(st.integers(-1, 4), max_size=3)
    | JSON_VALUES
)


def _edited(arch, edits, dropped):
    out = {**arch, **edits}
    for key in dropped:
        out.pop(key, None)
    return out


_LSTM_ARCH = {"kind": "lstm", "input_dim": 2, "hidden": [3], "output_dim": 3, "output_bias": True}
_DENSE_ARCH = {
    "kind": "dense", "input_dim": 4, "hidden": [3, 2], "output_dim": 3, "output": "sigmoid"
}


# valid blocks of each kind, with a few keys replaced or dropped
ARCHITECTURES = st.builds(
    _edited,
    st.sampled_from(
        [
            {"kind": "gmm", "n_classes": 3, "dim": 2},
            _LSTM_ARCH,
            _DENSE_ARCH,
        ]
    ),
    st.dictionaries(st.sampled_from(ARCH_KEYS) | st.text(max_size=4), ARCH_VALUES, max_size=2),
    st.lists(st.sampled_from(ARCH_KEYS), max_size=2),
)


def _declared(arch) -> int:
    """The parameter count a well-formed, small block declares, worked out
    here apart from the loader; 0 for any other block."""
    try:
        if arch["kind"] == "gmm":
            count = arch["n_classes"] * (arch["dim"] + arch["dim"] ** 2 + 1)
        elif arch["kind"] == "dense":
            count = dense_param_count(arch["input_dim"], arch["hidden"], arch["output_dim"])
        else:
            count = lstm_param_count(
                arch["input_dim"], arch["hidden"], arch["output_dim"], arch.get("output_bias")
            )
    except (KeyError, TypeError, ValueError, OverflowError):
        return 0
    return count if isinstance(count, int) and 0 <= count <= 10_000 else 0


@FUZZ
@example(arch={**_LSTM_ARCH, "hidden": []}, count=None, seed=0)
@example(arch={**_LSTM_ARCH, "output": "tanh"}, count=None, seed=0)
@example(arch={**_DENSE_ARCH, "output": None}, count=None, seed=0)
@given(
    arch=ARCHITECTURES | JSON_VALUES,
    count=st.none() | st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_fuzzed_architecture_blocks(files, arch, count, seed):
    """``count=None`` stores the count the block declares, so valid blocks
    build a model and the parameters are loaded into it."""
    if count is None:
        count = _declared(arch)
    arch_bytes = json.dumps(arch).encode()
    params = np.random.default_rng(seed).normal(size=count)
    raw = (
        struct.pack("<12sII", MODEL_MAGIC, 1, len(arch_bytes))
        + arch_bytes
        + struct.pack("<Q", count)
        + params.astype("<f8").tobytes()
    )
    _check_model(files, raw)


CONFIG_EDITS = st.dictionaries(
    st.sampled_from(sorted(SimConfig().to_dict())) | st.text(max_size=4), JSON_VALUES, max_size=3
)


@FUZZ
@given(
    d=CONFIG_EDITS.map(lambda edits: {**SimConfig().to_dict(), **edits})
    | CONFIG_EDITS
    | JSON_VALUES
)
def test_fuzzed_sim_config_dicts(files, d):
    def build():
        SimConfig.from_dict(d).validate()

    if not _loads_or_refuses(build):
        path = files["dir"] / "config.json"
        path.write_text(json.dumps(d))
        assert _cli("simulate", "--config", str(path), "--out", str(files["dir"] / "x.rkd")) == 2
