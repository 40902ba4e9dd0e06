import tracemalloc

import numpy as np
import pytest

from readoutkit import (
    ConfigurationError,
    DataError,
    FileFormatError,
    GmmClassifier,
    IncompatibilityError,
    LstmNetwork,
    RawShot,
    TrainedPipeline,
    normalize_descriptor,
    preprocess_batch,
    standard_pipelines,
    train_pipeline,
)
from readoutkit.nn import softmax
from readoutkit.pipeline import _model_inputs, apply_stages, integrated_points


def demod_stage(freq=0.1):
    return {"op": "demodulate", "frequency": freq}


def test_standard_pipeline_names():
    pipes = standard_pipelines()
    assert set(pipes) == {"gmm", "lstm", "bandpass_lstm", "signature_dense"}
    for desc in pipes.values():
        normalize_descriptor(desc)


def test_normalize_fills_defaults():
    desc = normalize_descriptor(
        {"stages": [demod_stage(), {"op": "bin", "size": 4}], "model": {"kind": "lstm"}}
    )
    assert desc["model"]["hidden"] == [16]
    assert desc["model"]["output"] == "softmax"
    assert desc["model"]["output_bias"] is False
    assert desc["weighting"] == {"kind": "uniform"}

    dense = normalize_descriptor(
        {"stages": [demod_stage()], "model": {"kind": "dense"}}
    )
    assert dense["model"]["hidden"] == [32, 16, 8]
    assert dense["model"]["features"] == {"type": "signature", "order": 5}


def test_normalize_does_not_mutate_input():
    desc = {"stages": [demod_stage()], "model": {"kind": "dense"}}
    normalize_descriptor(desc)
    assert desc["model"] == {"kind": "dense"}


@pytest.mark.parametrize(
    "stages,model",
    [
        # no demodulate at all
        ([{"op": "integrate"}], {"kind": "gmm"}),
        # two demodulates
        ([demod_stage(), demod_stage()], {"kind": "lstm"}),
        # bandpass after demodulate
        (
            [demod_stage(), {"op": "bandpass", "center": 0.1, "half_width": 0.01}],
            {"kind": "lstm"},
        ),
        # bin before demodulate
        ([{"op": "bin", "size": 2}, demod_stage()], {"kind": "lstm"}),
        # integrate not final
        (
            [demod_stage(), {"op": "integrate"}, {"op": "bin", "size": 2}],
            {"kind": "gmm"},
        ),
        # unknown op
        ([demod_stage(), {"op": "smooth"}], {"kind": "lstm"}),
        # gmm without integrate
        ([demod_stage()], {"kind": "gmm"}),
        # lstm with integrate
        ([demod_stage(), {"op": "integrate"}], {"kind": "lstm"}),
        # missing bandpass parameters
        ([{"op": "bandpass", "center": 0.1}, demod_stage()], {"kind": "lstm"}),
        # bad bin size
        ([demod_stage(), {"op": "bin", "size": 0}], {"kind": "lstm"}),
        # path transform before demodulate
        ([{"op": "path_transform"}, demod_stage()], {"kind": "lstm"}),
        # sizes past their caps: a layer width over 1024, a signature order over 8
        ([demod_stage()], {"kind": "lstm", "hidden": [1025]}),
        ([demod_stage()], {"kind": "dense", "hidden": [8, 1025]}),
        ([demod_stage()], {"kind": "dense", "features": {"type": "signature", "order": 9}}),
        # more than 8 hidden layers
        ([demod_stage()], {"kind": "lstm", "hidden": [2] * 9}),
        ([demod_stage()], {"kind": "dense", "hidden": [2] * 9}),
    ],
)
def test_descriptor_validation_rejects(stages, model):
    with pytest.raises(ConfigurationError):
        normalize_descriptor({"stages": stages, "model": model})


@pytest.mark.parametrize(
    "stages,index",
    [
        (["demodulate"], 0),
        ([demod_stage(), None], 1),
        ([{"op": "bandpass", "center": "0.1", "half_width": 0.01}, demod_stage()], 0),
        ([{"op": "bandpass", "center": float("nan"), "half_width": 0.01}, demod_stage()], 0),
        ([{"op": "bandpass", "center": 0.1, "half_width": float("inf")}, demod_stage()], 0),
        ([{"op": "bandpass", "center": 0.1, "half_width": True}, demod_stage()], 0),
        ([{"op": "bandpass", "center": 0.1, "half_width": None}, demod_stage()], 0),
        (
            [
                {"op": "bandpass", "center": 0.1, "half_width": 0.01},
                {"op": "bandpass", "center": 0.1, "half_width": -0.01},
                demod_stage(),
            ],
            1,
        ),
    ],
)
def test_descriptor_rejects_bad_stage_values_with_index(stages, index):
    with pytest.raises(ConfigurationError, match=f"stage {index}"):
        normalize_descriptor({"stages": stages, "model": {"kind": "lstm"}})


def test_descriptor_accepts_integer_band_edges():
    stages = [{"op": "bandpass", "center": 0, "half_width": 1}, demod_stage(0.0)]
    assert normalize_descriptor({"stages": stages, "model": {"kind": "lstm"}})["stages"] == stages


def test_descriptor_rejects_bad_weighting_and_model():
    with pytest.raises(ConfigurationError):
        normalize_descriptor(
            {"stages": [demod_stage()], "model": {"kind": "forest"}}
        )
    with pytest.raises(ConfigurationError):
        normalize_descriptor(
            {
                "stages": [demod_stage()],
                "model": {"kind": "lstm"},
                "weighting": {"kind": "magic"},
            }
        )
    with pytest.raises(ConfigurationError):
        # confidence weighting is meaningless for the closed-form baseline
        normalize_descriptor(
            {
                "stages": [demod_stage(), {"op": "integrate"}],
                "model": {"kind": "gmm"},
                "weighting": {"kind": "gmm_confidence"},
            }
        )


def test_apply_stages_demod_then_integrate_matches_manual(quiet_dataset):
    shot = quiet_dataset.shots[0]
    stages = [demod_stage(0.1), {"op": "integrate"}]
    arr = apply_stages(shot.samples[None], shot.sample_rate, stages)
    assert arr.shape == (1, 2)
    arr = arr[0]
    from readoutkit import demodulate

    i, q = demodulate(np.asarray(shot.samples, dtype=float), shot.sample_rate, 0.1)
    assert abs(arr[0] - np.mean(i)) < 1e-12
    assert abs(arr[1] - np.mean(q)) < 1e-12


def test_preprocess_batch_matches_per_shot(quiet_dataset):
    shots = quiet_dataset.shots[:7]
    stages = [
        {"op": "bandpass", "center": 0.1, "half_width": 0.02},
        demod_stage(),
        {"op": "bin", "size": 5},
    ]
    arr = preprocess_batch(shots, stages)
    assert arr.shape == (7, len(shots[0].samples) // 5, 2)
    for k, shot in enumerate(shots):
        single = apply_stages(shot.samples[None], shot.sample_rate, stages)
        assert np.allclose(arr[k], single[0], atol=1e-12)


def test_preprocess_batch_chunking_invariant(quiet_dataset):
    shots = quiet_dataset.shots[:10]
    stages = [demod_stage(), {"op": "path_transform"}]
    parts = [preprocess_batch(shots[s : s + 2], stages) for s in range(0, len(shots), 2)]
    whole = preprocess_batch(shots, stages)
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("name", ["gmm", "lstm", "bandpass_lstm"])
def test_preprocess_batch_memory_does_not_grow_with_the_shots(front_end_threads, name, count):
    # the whole set's float64 copy alone would be 46 MiB, its demodulated
    # (2, 3000, 2000) array 92 MiB; each front-end thread holds its own
    # slice's temporaries, so the bound is checked at set CPU counts
    front_end_threads(count)
    noise = np.random.default_rng(0).normal(size=(3000, 2000)).astype(np.float32)
    shots = [
        RawShot(samples=row, label=0, herald_pass=True, true_path=None, shot_id=k)
        for k, row in enumerate(noise)
    ]
    stages = normalize_descriptor(standard_pipelines()[name])["stages"]
    tracemalloc.start()
    try:
        preprocess_batch(shots, stages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_train_gmm_pipeline_and_predict(quiet_dataset):
    desc = standard_pipelines()["gmm"]
    fitted = train_pipeline(quiet_dataset, desc)
    assert isinstance(fitted.model, GmmClassifier)
    preds = fitted.predict(quiet_dataset.shots)
    labels = quiet_dataset.labels
    assert np.mean(preds == labels) > 0.99
    with pytest.raises(ConfigurationError, match="no shots"):
        fitted.predict([])


def test_train_lstm_pipeline_runs(quiet_dataset):
    desc = standard_pipelines(bin_size=40)["lstm"]
    desc["train"] = {"epochs": 3, "seed": 0}
    records = []
    fitted = train_pipeline(quiet_dataset, desc, log_fn=records.append)
    assert len(records) == 3
    assert isinstance(fitted.model, LstmNetwork)
    assert fitted.model.input_dim == 2
    preds = fitted.predict(quiet_dataset.shots[:5])
    assert preds.shape == (5,)


def test_lstm_pipeline_predicts_in_float32(quiet_dataset):
    # an lstm pipeline hands its model float32 input in prediction as in
    # training; the probabilities are the softmax of the float32 forward,
    # widened to float64; 360 shots span two prediction blocks
    desc = standard_pipelines(bin_size=40)["bandpass_lstm"]
    desc["train"] = {"epochs": 1, "seed": 0}
    fitted = train_pipeline(quiet_dataset, desc)
    shots = quiet_dataset.shots * 2
    x = _model_inputs(fitted.descriptor, preprocess_batch(shots, fitted.descriptor["stages"]))
    assert x.dtype == np.float32
    logits, _ = fitted.model.forward(x)
    assert logits.dtype == np.float32
    proba = fitted.predict_proba(shots)
    assert proba.dtype == np.float64
    assert proba.tobytes() == softmax(logits.astype(np.float64), axis=1).tobytes()


def test_train_dense_signature_pipeline(quiet_dataset):
    desc = standard_pipelines(bin_size=40)["signature_dense"]
    desc["train"] = {"epochs": 3, "seed": 0}
    fitted = train_pipeline(quiet_dataset, desc)
    assert fitted.model.input_dim == 63


def test_confidence_weighting_trains(quiet_dataset):
    desc = standard_pipelines(bin_size=40)["lstm"]
    desc["train"] = {"epochs": 2, "seed": 0}
    desc["weighting"] = {"kind": "gmm_confidence", "floor": 0.2}
    fitted = train_pipeline(quiet_dataset, desc)
    assert fitted.predict(quiet_dataset.shots[:3]).shape == (3,)


def test_pipeline_save_load_roundtrip(tmp_path, quiet_dataset):
    for name in ("gmm", "lstm"):
        desc = standard_pipelines(bin_size=40)[name]
        if name != "gmm":
            desc["train"] = {"epochs": 2, "seed": 0}
        fitted = train_pipeline(quiet_dataset, desc)
        path = tmp_path / f"{name}.rkm"
        fitted.save(path)
        loaded = TrainedPipeline.load(path)
        assert loaded.descriptor == fitted.descriptor
        probe = quiet_dataset.shots[:20]
        assert np.array_equal(loaded.predict(probe), fitted.predict(probe))
        proba_a = fitted.predict_proba(probe)
        proba_b = loaded.predict_proba(probe)
        assert np.allclose(proba_a, proba_b, atol=1e-12)
        # a pipeline is plain data: its four fields, nothing derived beside them
        fields = {"descriptor", "model", "input_length", "sample_rate"}
        assert vars(fitted).keys() == vars(loaded).keys() == fields


def test_descriptor_with_numpy_scalars_saves_as_plain_values(tmp_path, quiet_dataset):
    # numpy sizes in a descriptor (and its train block) normalize to Python
    # values, so the model saves, with the plain descriptor's bytes
    files = {}
    for name, size, epochs in (("numpy", np.int64(40), np.int64(1)), ("plain", 40, 1)):
        desc = standard_pipelines(bin_size=size)["lstm"]
        desc["train"] = {"epochs": epochs, "seed": 0}
        path = tmp_path / f"{name}.rkm"
        train_pipeline(quiet_dataset, desc).save(path)
        files[name] = path.read_bytes(), (tmp_path / f"{name}.rkm.json").read_bytes()
    assert files["numpy"] == files["plain"]
    assert TrainedPipeline.load(tmp_path / "numpy.rkm").descriptor["stages"][1]["size"] == 40


def test_pipeline_rejects_wrong_trace_length(quiet_dataset, decaying_dataset):
    desc = standard_pipelines()["gmm"]
    fitted = train_pipeline(quiet_dataset, desc)
    short = quiet_dataset.shots[0]
    import dataclasses

    bad = dataclasses.replace(short, samples=short.samples[:-10])
    with pytest.raises(IncompatibilityError):
        fitted.predict([bad])


def test_pipeline_refuses_shots_at_another_sample_rate(tmp_path, quiet_dataset):
    # the same 400 samples read at 1.0 /ns instead of 2.0 /ns are another
    # trace: the stages would demodulate and filter them at the wrong rate
    import dataclasses

    fitted = train_pipeline(quiet_dataset, standard_pipelines()["gmm"])
    fitted.save(tmp_path / "gmm.rkm")
    slow = [dataclasses.replace(s, sample_rate=1.0) for s in quiet_dataset.shots[:6]]
    for model in (fitted, TrainedPipeline.load(tmp_path / "gmm.rkm")):
        with pytest.raises(IncompatibilityError, match="2.0 samples/ns, got 1.0"):
            model.predict(slow)
        assert model.sample_rate == 2.0
        assert model.predict(quiet_dataset.shots[:6]).shape == (6,)


def test_descriptor_size_caps_are_inclusive():
    stages = [demod_stage(), {"op": "bin", "size": 4}]
    normalize_descriptor({"stages": stages, "model": {"kind": "lstm", "hidden": [1024]}})
    normalize_descriptor({"stages": stages, "model": {"kind": "lstm", "hidden": [2] * 8}})
    normalize_descriptor({"stages": stages, "model": {"kind": "dense", "hidden": [2] * 8}})
    features = {"type": "signature", "order": 8}
    normalize_descriptor({"stages": stages, "model": {"kind": "dense", "features": features}})


def _mixed(shots, which):
    """The shots with the second one's length or rate changed."""
    import dataclasses

    s = shots[1]
    if which == "length":
        other = dataclasses.replace(s, samples=np.concatenate([s.samples, s.samples[:8]]))
    else:
        other = dataclasses.replace(s, sample_rate=s.sample_rate / 2)
    return [shots[0], other] + list(shots[2:])


@pytest.mark.parametrize("which", ["length", "rate"])
def test_predict_refuses_shots_of_mixed_length_or_rate(quiet_dataset, which):
    # the stages run at one rate per block: a mixed block would process a
    # shot at another shot's rate
    fitted = train_pipeline(quiet_dataset, standard_pipelines()["gmm"])
    shots = _mixed(quiet_dataset.shots[:6], which)
    with pytest.raises(DataError, match="must share length and rate"):
        fitted.predict(shots)
    with pytest.raises(DataError, match="must share length and rate"):
        fitted.predict_proba(shots)


@pytest.mark.parametrize("which", ["length", "rate"])
def test_train_refuses_shots_of_mixed_length_or_rate(quiet_dataset, which):
    shots = _mixed(quiet_dataset.shots, which)
    with pytest.raises(DataError, match="must share length and rate"):
        train_pipeline(shots, standard_pipelines()["gmm"])


@pytest.mark.parametrize("name", ["gmm", "bandpass_lstm", "signature_dense"])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_pipeline_refuses_non_finite_shots(quiet_dataset, name, bad_value):
    import dataclasses

    desc = standard_pipelines(bin_size=40)[name]
    if name != "gmm":
        desc["train"] = {"epochs": 1, "seed": 0}
    fitted = train_pipeline(quiet_dataset, desc)
    good = quiet_dataset.shots[0]
    samples = good.samples.copy()
    samples[17] = bad_value
    bad = dataclasses.replace(good, samples=samples)
    with pytest.raises(DataError, match="shot 1 "):
        fitted.predict([good, bad])
    with pytest.raises(DataError):
        fitted.predict_proba([bad, good])
    with pytest.raises(DataError):
        fitted.predict_one(bad)
    assert fitted.predict_one(good) in (0, 1, 2)


@pytest.mark.parametrize("name", ["gmm", "bandpass_lstm", "signature_dense"])
@pytest.mark.parametrize("row", [0, 179, 600])
def test_training_refuses_non_finite_shots_naming_the_first(quiet_dataset, name, row):
    import dataclasses

    desc = standard_pipelines(bin_size=40)[name]
    if name != "gmm":
        desc["train"] = {"epochs": 1, "seed": 0}
    # 4 x 180 shots: row 600 lies in the third 256-shot block
    shots = list(quiet_dataset.shots) * 4
    for k in (row, row + 3, len(shots) - 1):
        samples = shots[k].samples.copy()
        samples[k % len(samples)] = np.inf if k % 2 else np.nan
        shots[k] = dataclasses.replace(shots[k], samples=samples)
    message = f"shot {row} \\(shot_id {shots[row].shot_id}\\) has non-finite samples"
    with pytest.raises(DataError, match=message):
        train_pipeline(shots, desc)


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00garbage"])
def test_pipeline_load_rejects_corrupt_sidecar(tmp_path, quiet_dataset, content):
    fitted = train_pipeline(quiet_dataset, standard_pipelines()["gmm"])
    path = tmp_path / "gmm.rkm"
    fitted.save(path)
    (tmp_path / "gmm.rkm.json").write_bytes(content)
    with pytest.raises(FileFormatError, match="not valid JSON"):
        TrainedPipeline.load(path)


def test_pipeline_load_refuses_an_input_length_no_record_holds(tmp_path, quiet_dataset):
    # the dataset record rule refuses the length before the stages run on a
    # zero trace of it, which at 2**45 float64 samples would be 256 TiB
    fitted = train_pipeline(quiet_dataset, standard_pipelines()["gmm"])
    path = tmp_path / "gmm.rkm"
    fitted.save(path, extra_meta={"input_length": 2**45})
    with pytest.raises(FileFormatError, match="records of 35184372088832 samples are too large"):
        TrainedPipeline.load(path)


def test_integrated_points_shape(quiet_dataset):
    pts = integrated_points(quiet_dataset.shots[:9], frequency=0.1)
    assert pts.shape == (9, 2)


def test_train_pipeline_rejects_empty():
    with pytest.raises(ConfigurationError):
        train_pipeline([], standard_pipelines()["gmm"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["gmm", "lstm", "signature_dense", "bandpass_lstm"])
def test_train_pipeline_rejects_shots_without_samples(quiet_dataset, name):
    # refused before any stage runs: the integrate stage would average no
    # samples into NaN, and a leading bandpass would ask for rfftfreq(0)
    shots = [
        RawShot(samples=np.zeros(0, dtype=np.float32), label=s.label, herald_pass=True,
                true_path=None, shot_id=k, sample_rate=2.0)
        for k, s in enumerate(quiet_dataset.shots[:30])
    ]
    desc = standard_pipelines()[name]
    with pytest.raises(DataError, match="no samples"):
        train_pipeline(shots, desc)
    with pytest.raises(DataError, match="no samples"):
        preprocess_batch(shots, desc["stages"])
    with pytest.raises(DataError, match="no samples"):
        integrated_points(shots, frequency=0.1)


def test_path_transform_stage_changes_features(quiet_dataset):
    shots = quiet_dataset.shots[:4]
    plain = [demod_stage(), {"op": "bin", "size": 10}]
    with_pt = plain + [{"op": "path_transform"}]
    a = preprocess_batch(shots, plain)
    b = preprocess_batch(shots, with_pt)
    assert a.shape == b.shape
    assert not np.allclose(a, b)
    # the transform with uniform weights subtracts the first column
    assert np.allclose(b, a - a[:, :1, :], atol=1e-12)
