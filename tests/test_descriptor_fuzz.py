"""Fuzzed pipeline descriptors through ``readoutkit train``.

The contract under test: whatever the descriptor, ``normalize_descriptor``
returns it or raises ``ConfigurationError``, and training on it through the
CLI exits 0, 2 (a bad descriptor) or 3 (a numerical failure), never with a
traceback.  Integers in the fuzzed values stay small, so a descriptor that
passes trains in milliseconds on the 6-sample traces here, and a ``bin``
can still be longer than the trace.  The Hypothesis settings are
derandomized with a bounded example count, as in ``test_loader_fuzz.py``.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readoutkit import ConfigurationError, SimConfig, generate_dataset, save_dataset
from readoutkit.cli import main
from readoutkit.pipeline import normalize_descriptor

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)

DEMOD = {"op": "demodulate", "frequency": 0.1}
TRAIN = {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3}
BASES = [
    {"name": "gmm", "stages": [DEMOD, {"op": "integrate"}], "model": {"kind": "gmm"}},
    {
        "name": "lstm",
        "stages": [DEMOD, {"op": "bin", "size": 2}],
        "model": {"kind": "lstm", "hidden": [3]},
        "train": TRAIN,
    },
    {
        "name": "bandpass_lstm",
        "stages": [
            {"op": "bandpass", "center": 0.1, "half_width": 0.4},
            DEMOD,
            {"op": "bin", "size": 2},
            {"op": "path_transform", "weights": [1.0, 0.5, 2.0]},
        ],
        "model": {"kind": "lstm", "hidden": [3], "output": "sigmoid", "output_bias": True},
        "weighting": {"kind": "gmm_confidence", "floor": 0.1},
        "train": TRAIN,
    },
    {
        "name": "signature_dense",
        "stages": [DEMOD, {"op": "bin", "size": 2}],
        "model": {"kind": "dense", "hidden": [4], "features": {"type": "signature", "order": 2}},
        "train": TRAIN,
    },
    {
        "name": "flat_dense",
        "stages": [DEMOD],
        "model": {"kind": "dense", "hidden": [], "features": {"type": "flat"}},
        "train": TRAIN,
    },
]

STAGE_KEYS = ("op", "center", "half_width", "frequency", "size", "weights")
TRAIN_KEYS = (
    "epochs", "batch_size", "learning_rate", "decay_gamma", "decay_every", "shuffle", "seed", "x"
)
PATHS = (
    [(key,) for key in ("name", "stages", "model", "weighting", "train", "x")]
    + [("stages", k) for k in range(4)]
    + [("stages", k, key) for k in range(4) for key in STAGE_KEYS]
    + [("model", key) for key in ("kind", "hidden", "output", "output_bias", "features")]
    + [("model", "features", key) for key in ("type", "order")]
    + [("weighting", key) for key in ("kind", "floor")]
    + [("train", key) for key in TRAIN_KEYS]
)
WORDS = st.sampled_from(
    ["gmm", "lstm", "dense", "softmax", "sigmoid", "signature", "flat", "uniform",
     "gmm_confidence", "bandpass", "demodulate", "bin", "path_transform", "integrate"]
)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=4) | WORDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(WORDS | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
DROP = object()


def _mutated(base: dict, edits) -> dict:
    """``base`` with each ``(path, value)`` edit applied where the path
    exists up to its last key; ``DROP`` deletes the entry."""
    desc = copy.deepcopy(base)
    for path, value in edits:
        node = desc
        for key in path[:-1]:
            if isinstance(node, dict) and key in node:
                node = node[key]
            elif isinstance(node, list) and isinstance(key, int) and key < len(node):
                node = node[key]
            else:
                break
        else:
            last = path[-1]
            if isinstance(node, dict):
                if value is DROP:
                    node.pop(last, None)
                else:
                    node[last] = value
            elif isinstance(node, list) and isinstance(last, int) and last < len(node):
                if value is DROP:
                    del node[last]
                else:
                    node[last] = value
    return desc


DESCRIPTORS = st.builds(
    _mutated,
    st.sampled_from(BASES),
    st.lists(st.tuples(st.sampled_from(PATHS), VALUES | st.just(DROP)), min_size=1, max_size=3),
)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("descriptors") / "shots.rkd"
    cfg = SimConfig(duration=3.0, t1=(None, None), noise_sigma=2.0, seed=5)
    save_dataset(generate_dataset(cfg, shots_per_state=8), path)
    return path


def _train(data, desc, *extra) -> int:
    pipe = data.parent / "pipeline.json"
    pipe.write_text(json.dumps(desc))
    out = data.parent / "model.rkm"
    args = ["train", "--data", str(data), "--pipeline", str(pipe), "--out", str(out), *extra]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def test_bases_train(data):
    for desc in BASES:
        assert _train(data, desc) == 0, desc["name"]


@FUZZ
@given(desc=DESCRIPTORS)
def test_fuzzed_descriptors(data, desc):
    try:
        normalize_descriptor(desc)
    except ConfigurationError:
        assert _train(data, desc) == 2
    else:
        assert _train(data, desc) in (0, 2, 3)


LSTM = BASES[1]


@pytest.mark.parametrize(
    "desc",
    [
        pytest.param({**LSTM, "train": {"epochs": 1, "bogus": 2}}, id="train-unknown-key"),
        pytest.param({**LSTM, "train": {"epochs": "2"}}, id="train-epochs-string"),
        pytest.param({**LSTM, "train": [1]}, id="train-not-a-mapping"),
        pytest.param({**LSTM, "stages": [{**DEMOD, "frequency": "0.1"}]}, id="frequency-string"),
        pytest.param(
            {**LSTM, "stages": [DEMOD, {"op": "path_transform", "weights": ["a"] * 6}]},
            id="weights-strings",
        ),
        pytest.param(
            {**LSTM, "weighting": {"kind": "gmm_confidence", "floor": "x"}}, id="floor-string"
        ),
        pytest.param({**LSTM, "stages": [DEMOD, {"op": "bin", "size": 7}]}, id="bin-too-long"),
        pytest.param(
            {**BASES[2], "stages": [BASES[2]["stages"][0], DEMOD, {"op": "bin", "size": 7}]},
            id="bin-too-long-after-bandpass",
        ),
        pytest.param({**LSTM, "model": {"kind": "lstm", "hidden": "16"}}, id="hidden-string"),
    ],
)
def test_reported_descriptors_exit_2(data, desc):
    assert _train(data, desc) == 2
    assert _train(data, desc, "--seed", "3") == 2
