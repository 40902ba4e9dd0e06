"""The benchmark's tracer against the library it patches.

``perfbench/tracing.py`` replaces library functions by name for a traced
run.  Loading it here and entering its ``instrumented`` block makes a
deleted or renamed traced name fail the fast suite, not only a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from readoutkit import Adam, DenseNetwork, GmmClassifier, LstmNetwork

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = [
    importlib.import_module(f"readoutkit.{name}")
    for name in ("sim", "dataio", "dsp", "pipeline", "nn.train")
] + [Adam, DenseNetwork, GmmClassifier, LstmNetwork]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumented_patches_and_restores_every_attribute(quiet_dataset):
    tracing = _load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for owner, attrs in zip(OWNERS, before):
            patched = [k for k, v in vars(owner).items() if attrs.get(k) is not v]
            assert patched, owner
        pipeline = OWNERS[3]
        stages = pipeline.normalize_descriptor(pipeline.standard_pipelines()["lstm"])["stages"]
        arr = pipeline.preprocess_batch(quiet_dataset.shots[:4], stages)
    assert arr.shape == (4, 10, 2) and np.isfinite(arr).all()
    names = {span["name"] for span in tracer.spans}
    assert {"pipeline.preprocess", "dsp.demodulate", "dsp.bin"} <= names
    for owner, attrs in zip(OWNERS, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[k] is v for k, v in attrs.items()), owner


def test_traced_lstm_training_and_prediction_record_their_spans(quiet_dataset):
    # the lstm wrappers read the forward's input shape and the backward's
    # cache[2]; only a traced training run calls them
    tracing = _load_tracing()
    pipeline = OWNERS[3]
    desc = {**pipeline.standard_pipelines()["lstm"], "train": {"epochs": 1}}
    shots = quiet_dataset.shots[::15]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        proba = pipeline.train_pipeline(shots, desc).predict_proba(shots)
    assert proba.shape == (len(shots), 3) and np.isfinite(proba).all()
    names = {span["name"] for span in tracer.spans}
    assert {"nn.lstm.forward_train", "nn.lstm.backward", "nn.optim.adam"} <= names
