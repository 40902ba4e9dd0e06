import json
import re
import struct

import numpy as np
import pytest

from readoutkit import Dataset, RawShot, load_dataset, lstm_param_count, save_dataset
from readoutkit.cli import main


QUICK_CONFIG = {
    "duration": 200.0,
    "t1": [None, None],
    "noise_sigma": 2.0,
    "seed": 11,
}

QUICK_PIPELINE = {
    "name": "quick_lstm",
    "stages": [
        {"op": "demodulate", "frequency": 0.1},
        {"op": "bin", "size": 40},
    ],
    "model": {"kind": "lstm", "hidden": [8]},
    "train": {"epochs": 2, "learning_rate": 1e-3, "seed": 0},
}


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(QUICK_CONFIG))
    pipe = tmp_path / "pipeline.json"
    pipe.write_text(json.dumps(QUICK_PIPELINE))
    return tmp_path


def simulate(workdir, name="shots.rkd", extra=()):
    out = workdir / name
    rc = main(
        [
            "simulate",
            "--config",
            str(workdir / "config.json"),
            "--shots-per-state",
            "30",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


def test_simulate_writes_dataset_and_reports(workdir, capsys):
    out = simulate(workdir)
    captured = capsys.readouterr().out
    assert "wrote 90 shots (30 per state)" in captured
    assert "samples per shot: 400" in captured
    assert "config sha256: " in captured
    assert "state 0: decayed fraction 0.0000" in captured
    assert out.exists() and out.with_suffix(".rkd.json").exists()


def test_simulate_deterministic_bytes(workdir):
    a = simulate(workdir, "a.rkd")
    b = simulate(workdir, "b.rkd")
    assert a.read_bytes() == b.read_bytes()
    c = simulate(workdir, "c.rkd", extra=("--seed", "99"))
    assert a.read_bytes() != c.read_bytes()


def test_train_evaluate_round(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "model.rkm"
    rc = main(
        [
            "train",
            "--data",
            str(data),
            "--pipeline",
            str(workdir / "pipeline.json"),
            "--out",
            str(model),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("epoch") == 2
    assert "lr 1.000e-03" in out
    assert "trained quick_lstm on 72 shots" in out
    assert model.exists() and model.with_suffix(".rkm.json").exists()

    report = workdir / "report.json"
    rc = main(
        ["evaluate", "--model", str(model), "--data", str(data), "--out", str(report)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "classifier" in out and "quick_lstm" in out
    assert "rows = prepared" in out
    payload = json.loads(report.read_text())
    assert payload["n_test"] == 18
    assert set(payload["per_state"]) == {"0", "1", "2"}


def test_train_stock_gmm(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    rc = main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)])
    assert rc == 0
    assert "trained gmm" in capsys.readouterr().out

    rc = main(["evaluate", "--model", str(model), "--data", str(data)])
    assert rc == 0
    # noise_sigma 2 with no decay channel is easily separable
    table = capsys.readouterr().out.splitlines()[1]
    assert float(table.split()[-2]) > 0.98


def test_compare_reports_gap_and_forensics(workdir, capsys):
    data = simulate(workdir)
    summary = workdir / "cmp.json"
    rc = main(
        [
            "compare",
            "--data",
            str(data),
            "--pipeline",
            str(workdir / "pipeline.json"),
            "--out",
            str(summary),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "average fidelity gap (quick_lstm - gmm):" in out
    assert "shots only quick_lstm got right:" in out
    assert "single-shot classification latency:" in out
    assert re.search(r"latency: [0-9.]+ ms median, [0-9.]+ ms p90 \([0-9]+ warm calls\)", out)
    payload = json.loads(summary.read_text())
    median, p90 = payload["latency_ms"], payload["latency_p90_ms"]
    assert f"latency: {median:.2f} ms median, {p90:.2f} ms p90 (" in out
    assert 0 < median <= p90
    assert set(payload) >= {
        "baseline", "primary", "gap", "gap_stderr", "disagreements", "latency_ms", "latency_p90_ms"
    }
    assert payload["baseline"]["name"] == "gmm"
    gap, stderr = payload["gap"], payload["gap_stderr"]
    assert abs(gap) <= 1.0 and 0 <= stderr <= 1.0
    assert f"gap (quick_lstm - gmm): {gap:+.4f} +/- {stderr:.4f} (paired stderr)\n" in out
    # regenerated ground truth makes the transition census available
    assert "primary_only_transition_fraction" in payload["disagreements"]


def test_export_csv_and_svg(workdir, capsys):
    data = simulate(workdir)
    csv_out = workdir / "shots.csv"
    rc = main(
        [
            "export",
            "--data",
            str(data),
            "--format",
            "csv",
            "--max-shots",
            "7",
            "--out",
            str(csv_out),
        ]
    )
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("shot_id,label,herald,s0")

    svg_out = workdir / "shots.svg"
    rc = main(["export", "--data", str(data), "--format", "svg", "--out", str(svg_out)])
    assert rc == 0
    assert svg_out.read_text().count("<circle") == 90


def test_inspect_dataset_and_model(workdir, capsys):
    data = simulate(workdir)
    rc = main(["inspect", "--data", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shots: 90" in out
    assert "per state: 0: 30, 1: 30, 2: 30" in out
    assert "config sha256" in out

    model = workdir / "gmm.rkm"
    main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)])
    capsys.readouterr()
    rc = main(["inspect", "--model", str(model)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "architecture:" in out
    assert "pipeline:" in out


def test_unknown_pipeline_is_config_error(workdir, capsys):
    data = simulate(workdir)
    rc = main(
        ["train", "--data", str(data), "--pipeline", "nonesuch", "--out", str(data) + ".m"]
    )
    assert rc == 2
    assert "unknown pipeline" in capsys.readouterr().err


def test_invalid_config_value_is_config_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({**QUICK_CONFIG, "noise_sigma": -4.0}))
    rc = main(
        ["simulate", "--config", str(bad), "--out", str(workdir / "x.rkd")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(json.dumps({**QUICK_CONFIG, "seed": "abc"}).encode(), id="seed-string"),
        pytest.param(
            json.dumps({**QUICK_CONFIG, "duration": "1000"}).encode(), id="duration-string"
        ),
        pytest.param(json.dumps({**QUICK_CONFIG, "noise_sigma": None}).encode(), id="noise-null"),
        pytest.param(json.dumps({**QUICK_CONFIG, "t1": [True, None]}).encode(), id="t1-bool"),
        pytest.param(
            json.dumps({**QUICK_CONFIG, "state_envelopes": [[1.0, 0.0, 2.0]] * 3}).encode(),
            id="envelope-triple",
        ),
        pytest.param(b"[1, 2]", id="list"),
        pytest.param(b"\xff\xfe", id="not-utf8"),
    ],
)
def test_simulate_config_with_wrong_types_exits_2(workdir, capsys, content):
    bad = workdir / "bad.json"
    bad.write_bytes(content)
    rc = main(["simulate", "--config", str(bad), "--out", str(workdir / "x.rkd")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "x.rkd").exists()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param({"duration": 1e200, "sample_rate": 1e200}, id="samples-overflow"),
        pytest.param({"duration": 0.1}, id="zero-samples"),
    ],
)
def test_simulate_config_without_a_finite_sample_count_exits_2(workdir, capsys, edit):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({**QUICK_CONFIG, **edit}))
    rc = main(["simulate", "--config", str(bad), "--out", str(workdir / "x.rkd")])
    assert rc == 2
    assert "duration * sample_rate" in capsys.readouterr().err
    assert not (workdir / "x.rkd").exists()


def test_compare_with_wrongly_typed_sidecar_exits_4(workdir, capsys):
    data = simulate(workdir)
    sidecar = workdir / "shots.rkd.json"
    meta = json.loads(sidecar.read_text())
    meta["config"]["seed"] = "abc"
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["compare", "--data", str(data), "--pipeline", "gmm"]) == 4
    assert "'seed'" in capsys.readouterr().err


def _model_file(arch, params, count=None):
    arch_bytes = json.dumps(arch).encode() if not isinstance(arch, bytes) else arch
    head = struct.pack("<12sII", b"RKIT-MODEL\x00\x00", 1, len(arch_bytes))
    count = len(params) if count is None else count
    return head + arch_bytes + struct.pack("<Q", count) + np.asarray(params, "<f8").tobytes()


GMM_ARCH = {"kind": "gmm", "n_classes": 3, "dim": 2}
LSTM_ARCH = {"kind": "lstm", "input_dim": 2, "hidden": [4], "output_dim": 3}


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda raw: raw[:-8], id="last-8-bytes-cut"),
        pytest.param(
            lambda raw: raw[: 20 + struct.unpack_from("<I", raw, 16)[0] + 4], id="cut-inside-count"
        ),
        pytest.param(
            lambda raw: raw[:16] + struct.pack("<I", 10**6) + raw[20:], id="json-len-past-end"
        ),
        pytest.param(lambda raw: _model_file([1, 2], np.zeros(21)), id="arch-is-a-list"),
        pytest.param(
            lambda raw: _model_file({"kind": "gmm", "n_classes": 3}, np.zeros(21)),
            id="gmm-without-dim",
        ),
        pytest.param(
            lambda raw: _model_file({k: v for k, v in LSTM_ARCH.items() if k != "hidden"}, []),
            id="lstm-without-hidden",
        ),
        pytest.param(
            lambda raw: _model_file({**LSTM_ARCH, "hidden": "ab"}, np.zeros(21)), id="hidden-ab"
        ),
        pytest.param(lambda raw: _model_file(b"\xff\xfe\xfd", np.zeros(21)), id="arch-not-utf8"),
        pytest.param(
            lambda raw: _model_file(GMM_ARCH, np.zeros(21), count=2**60), id="count-past-end"
        ),
        pytest.param(
            lambda raw: _model_file({**GMM_ARCH, "dim": 10**6}, np.zeros(21)), id="count-mismatch"
        ),
    ],
)
def test_corrupt_model_file_exits_4(workdir, capsys, corrupt):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    model.write_bytes(corrupt(model.read_bytes()))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "file error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param({"output_bias": "no"}, id="output-bias-string"),
        pytest.param({"output_bias": 1}, id="output-bias-1"),
        pytest.param({"output_bias": []}, id="output-bias-list"),
        pytest.param({"output_bias": {"a": 1}}, id="output-bias-object"),
        pytest.param({"dropout": 0.5}, id="unknown-key"),
        pytest.param({"hidden": [1025]}, id="hidden-past-1024"),
        pytest.param({"hidden": [4] * 9}, id="hidden-past-8-layers"),
    ],
)
def test_model_architecture_with_a_bad_or_unknown_field_exits_4(workdir, capsys, edit):
    # the file holds the parameter count the sizes declare (with an output
    # bias where the value is truthy, and a width past the cap counted as
    # 4), so only the field itself can refuse it
    arch = {**LSTM_ARCH, **edit}
    hidden = [min(h, 4) for h in arch["hidden"]]
    count = lstm_param_count(2, hidden, 3, bool(arch.get("output_bias")))
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    model.write_bytes(_model_file(arch, np.zeros(count)))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "invalid architecture" in capsys.readouterr().err


def test_unreadable_files_exit_4(workdir, capsys):
    rc = main(["evaluate", "--model", "missing.rkm", "--data", "missing.rkd"])
    assert rc == 4
    capsys.readouterr()
    garbage = workdir / "garbage.rkd"
    garbage.write_bytes(b"not a dataset at all")
    rc = main(["inspect", "--data", str(garbage)])
    assert rc == 4
    assert "file error:" in capsys.readouterr().err
    out = workdir / "x.rkd"
    assert main(["simulate", "--config", str(workdir / "missing.json"), "--out", str(out)]) == 4
    assert "cannot read config" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_model_sidecar_exits_4(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    (workdir / "gmm.rkm.json").write_text('{"architecture": ')
    capsys.readouterr()
    rc = main(["inspect", "--model", str(model)])
    assert rc == 4
    assert "not valid JSON" in capsys.readouterr().err
    rc = main(["evaluate", "--model", str(model), "--data", str(data)])
    assert rc == 4
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "evaluate"])
def test_model_sidecar_that_is_not_an_object_exits_4(workdir, capsys, command):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    (workdir / "gmm.rkm.json").write_text("[1, 2]")
    capsys.readouterr()
    args = ["--model", str(model)] + (["--data", str(data)] if command == "evaluate" else [])
    assert main([command, *args]) == 4
    assert "not an object" in capsys.readouterr().err


def test_model_sidecar_without_input_length_exits_4(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    sidecar = workdir / "gmm.rkm.json"
    meta = json.loads(sidecar.read_text())
    del meta["input_length"]
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "input_length" in capsys.readouterr().err


@pytest.mark.parametrize("value", [-3, 2.7, True, "40"])
def test_model_sidecar_with_bad_input_length_exits_4(workdir, capsys, value):
    # an input_length is an integer >= 1, not anything int() takes
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    sidecar = workdir / "gmm.rkm.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "input_length": value}))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "input_length" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, 0, -2.0, float("inf"), True, "2.0"])
def test_model_sidecar_without_a_valid_sample_rate_exits_4(workdir, capsys, value):
    # None drops the field; a rate is a finite number > 0
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    sidecar = workdir / "gmm.rkm.json"
    meta = json.loads(sidecar.read_text())
    assert meta["sample_rate"] == 2.0
    del meta["sample_rate"]
    if value is not None:
        meta["sample_rate"] = value
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "sample_rate" in capsys.readouterr().err


def test_evaluate_refuses_data_at_another_sample_rate_exits_2(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    # the same 400 samples per shot, at half the rate
    slow_config = {**QUICK_CONFIG, "duration": 400.0, "sample_rate": 1.0}
    (workdir / "config.json").write_text(json.dumps(slow_config))
    slow = simulate(workdir, "slow.rkd")
    assert "samples per shot: 400, sample rate: 1.0" in capsys.readouterr().out
    assert main(["evaluate", "--model", str(model), "--data", str(slow)]) == 2
    assert "trained on shots at 2.0 samples/ns, got 1.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [
        # refused while the descriptor is read: before the caps this asked
        # numpy for one 4e18-element weight block
        pytest.param({"kind": "lstm", "hidden": [10**9]}, id="lstm-width"),
        pytest.param({"kind": "dense", "hidden": [1025]}, id="dense-width"),
        pytest.param(
            {"kind": "dense", "features": {"type": "signature", "order": 9}}, id="signature-order"
        ),
        # the depth is capped too: 1000 layers of 1024 units is 62.5 GiB
        pytest.param({"kind": "lstm", "hidden": [2] * 9}, id="lstm-depth"),
        pytest.param({"kind": "dense", "hidden": [2] * 9}, id="dense-depth"),
    ],
)
def test_train_refuses_descriptor_sizes_past_their_caps_exits_2(workdir, capsys, model):
    data = simulate(workdir)
    pipe = workdir / "wide.json"
    pipe.write_text(json.dumps({**QUICK_PIPELINE, "model": model}))
    out = workdir / "wide.rkm"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--pipeline", str(pipe), "--out", str(out)]) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


def _drop_pipeline(meta):
    del meta["pipeline"]


def _no_stages(meta):
    meta["pipeline"]["stages"] = []


def _lstm_descriptor(meta):
    meta["pipeline"] = QUICK_PIPELINE


def _wider_hidden(meta):
    meta["pipeline"]["model"]["hidden"] = [9]


def _stray_model_field(meta):
    meta["pipeline"]["model"]["output"] = "softmax"


def _lower_signature_order(meta):
    meta["pipeline"]["model"]["features"]["order"] = 4


def _bin_past_the_trace(meta):
    meta["pipeline"]["stages"][-1]["size"] = 1000


def _input_length_no_record_holds(meta):
    meta["input_length"] = 2**45


@pytest.mark.parametrize(
    "pipeline, edit, message",
    [
        ("gmm", None, "cannot read model sidecar"),
        ("gmm", _drop_pipeline, "no pipeline descriptor"),
        ("gmm", _no_stages, "invalid pipeline descriptor"),
        ("gmm", _lstm_descriptor, "describes a model other than"),
        ("quick", _wider_hidden, "describes a model other than"),
        ("gmm", _stray_model_field, "invalid pipeline descriptor"),
        ("signature_dense", _lower_signature_order, "give 31 features per shot"),
        ("quick", _bin_past_the_trace, "bin size 1000 exceeds the 400-step trajectory"),
        ("gmm", _input_length_no_record_holds, "records of 35184372088832 samples are too large"),
    ],
    ids=[
        "missing",
        "no-pipeline",
        "bad-descriptor",
        "gmm-file-lstm-descriptor",
        "hidden-mismatch",
        "unknown-descriptor-field",
        "signature-order-mismatch",
        "bin-past-the-trace",
        "input-length-no-record-holds",
    ],
)
def test_model_sidecar_faults_exit_4(workdir, capsys, pipeline, edit, message):
    data = simulate(workdir)
    model = workdir / "m.rkm"
    spec = str(workdir / "pipeline.json") if pipeline == "quick" else pipeline
    assert main(["train", "--data", str(data), "--pipeline", spec, "--out", str(model)]) == 0
    sidecar = workdir / "m.rkm.json"
    if edit is None:
        sidecar.unlink()
    else:
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "arch, params",
    [
        # every parameter zero but the bias of class 3, which every shot then takes
        pytest.param(
            {**LSTM_ARCH, "hidden": [8], "output_dim": 4, "output_bias": True},
            np.r_[np.zeros(lstm_param_count(2, [8], 4, True) - 1), 1.0],
            id="lstm",
        ),
        # unit covariances at one mean: class 3 takes every point by its prior
        pytest.param(
            {**GMM_ARCH, "n_classes": 4},
            np.concatenate([np.zeros(8), np.tile([1.0, 0.0, 0.0, 1.0], 4), [0.1, 0.1, 0.1, 0.7]]),
            id="gmm",
        ),
    ],
)
def test_model_with_more_classes_than_states_exits_4(workdir, capsys, arch, params):
    # a valid sidecar, from a model trained with the same descriptor
    data = simulate(workdir)
    spec = "gmm"
    if arch["kind"] == "lstm":
        spec = workdir / "biased.json"
        model_block = {**QUICK_PIPELINE["model"], "output_bias": True}
        spec.write_text(json.dumps({**QUICK_PIPELINE, "model": model_block}))
    model = workdir / "m.rkm"
    assert main(["train", "--data", str(data), "--pipeline", str(spec), "--out", str(model)]) == 0
    model.write_bytes(_model_file(arch, params))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "holds a 4-class model; shots have 3 states" in capsys.readouterr().err


def test_compare_rejects_sidecar_that_does_not_reproduce(workdir, capsys):
    data = simulate(workdir)
    sidecar = workdir / "shots.rkd.json"
    meta = json.loads(sidecar.read_text())
    meta["config"]["seed"] += 1
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    rc = main(["compare", "--data", str(data), "--pipeline", str(workdir / "pipeline.json")])
    assert rc == 2
    assert "does not reproduce" in capsys.readouterr().err


def test_compare_rejects_a_shot_count_the_config_cannot_give(workdir, capsys):
    # 89 shots saved with their 30-per-state config: regeneration refuses
    # them rather than compare going on without ground truth
    data = simulate(workdir)
    dataset = load_dataset(data)
    save_dataset(Dataset(shots=dataset.shots[:89], config=dataset.config), data)
    capsys.readouterr()
    rc = main(["compare", "--data", str(data), "--pipeline", str(workdir / "pipeline.json")])
    assert rc == 2
    assert "expected 87 shots, got 89" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 2])
def test_compare_names_the_count_of_a_one_or_two_shot_file(workdir, capsys, count):
    # a 1- or 2-shot file is refused for its shot count, not for the
    # shots_per_state of 0 that len // 3 gives
    data = simulate(workdir)
    dataset = load_dataset(data)
    save_dataset(Dataset(shots=dataset.shots[:count], config=dataset.config), data)
    capsys.readouterr()
    rc = main(["compare", "--data", str(data), "--pipeline", "gmm"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: expected 0 shots, got {count}\n"


def test_compare_rejects_a_label_the_config_does_not_reproduce(workdir, capsys):
    data = simulate(workdir)
    raw = bytearray(data.read_bytes())
    record = 2 + 4 * 400
    label = len(raw) - 90 * record + 5 * record
    assert raw[label] == 0  # row 5 was prepared in state 0
    raw[label] = 1
    data.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = main(["compare", "--data", str(data), "--pipeline", str(workdir / "pipeline.json")])
    assert rc == 2
    assert "label of row 5" in capsys.readouterr().err


def test_evaluate_refuses_non_finite_shots(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    shots = []
    for k in range(30):
        samples = np.zeros(400, dtype=np.float32)
        samples[k] = np.nan
        shots.append(
            RawShot(
                samples=samples,
                label=k % 3,
                herald_pass=True,
                true_path=None,
                shot_id=k,
                sample_rate=2.0,
            )
        )
    bad = workdir / "nan.rkd"
    save_dataset(Dataset(shots=shots, config=None), bad)
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(bad)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["train", "--pipeline", "gmm"], id="gmm"),
        pytest.param(["train", "--pipeline", "bandpass_lstm"], id="bandpass_lstm"),
        # the scatter averages each shot's samples: no samples, no point
        pytest.param(["export", "--format", "svg"], id="export-svg"),
        # a row per shot with no sample columns is no export
        pytest.param(["export", "--format", "csv"], id="export-csv"),
    ],
)
def test_training_on_shots_without_samples_exits_2(workdir, capsys, command):
    shots = [
        RawShot(samples=np.zeros(0, dtype=np.float32), label=k % 3, herald_pass=True,
                true_path=None, shot_id=k, sample_rate=2.0)
        for k in range(30)
    ]
    empty = workdir / "empty.rkd"
    save_dataset(Dataset(shots=shots, config=None), empty)
    out = workdir / "never.out"
    assert main(command + ["--data", str(empty), "--out", str(out)]) == 2
    assert "no samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pipeline", ["gmm", "bandpass_lstm", "pipeline.json"])
def test_nan_training_exits_2_naming_the_shot(workdir, capsys, pipeline):
    shots = []
    for k in range(30):
        samples = np.zeros(400, dtype=np.float32)
        samples[k] = np.nan
        shots.append(
            RawShot(
                samples=samples,
                label=k % 3,
                herald_pass=True,
                true_path=None,
                shot_id=k,
                sample_rate=2.0,
            )
        )
    bad = workdir / "nan.rkd"
    save_dataset(Dataset(shots=shots, config=None), bad)
    if pipeline.endswith(".json"):
        pipeline = str(workdir / pipeline)
    model = workdir / "never.rkm"
    rc = main(["train", "--data", str(bad), "--pipeline", pipeline, "--out", str(model)])
    assert rc == 2
    assert "shot 0 (shot_id " in capsys.readouterr().err  # the split's first shot
    assert not model.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_exits_3(workdir, capsys):
    data = simulate(workdir)
    diverging = {**QUICK_PIPELINE, "train": {**QUICK_PIPELINE["train"], "learning_rate": 1e100}}
    pipe = workdir / "diverging.json"
    pipe.write_text(json.dumps(diverging))
    model = workdir / "never.rkm"
    rc = main(["train", "--data", str(data), "--pipeline", str(pipe), "--out", str(model)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not model.exists()


def test_missing_subcommand_raises_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_evaluate_rejects_incompatible_data(workdir, capsys):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)])
    capsys.readouterr()

    other = workdir / "other_config.json"
    other.write_text(json.dumps({**QUICK_CONFIG, "duration": 400.0}))
    long_data = workdir / "long.rkd"
    rc = main(
        [
            "simulate",
            "--config",
            str(other),
            "--shots-per-state",
            "10",
            "--out",
            str(long_data),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(long_data)])
    assert rc == 2


@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"config": ', "not valid JSON"),
        (b"\xff\xfe", "not valid JSON"),
        (b"[1, 2]", "not an object"),
        (b'{"config": {"seed": 1, "bogus": 2}}', "bad config"),
        (b'{"config": [1, 2]}', "bad config"),
        (b'{"config": {"seed": "abc"}}', "bad config"),
        (b'{"config": {"duration": -5}}', "bad config"),
    ],
)
@pytest.mark.parametrize("command", ["inspect", "evaluate"])
def test_bad_dataset_sidecar_exits_4(workdir, capsys, command, content, message):
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    (workdir / "shots.rkd.json").write_bytes(content)
    capsys.readouterr()
    args = ["--data", str(data)] + (["--model", str(model)] if command == "evaluate" else [])
    assert main([command, *args]) == 4
    err = capsys.readouterr().err
    assert "dataset sidecar" in err and message in err


def test_pipeline_with_non_mapping_stage_exits_2(workdir, capsys):
    data = simulate(workdir)
    pipe = workdir / "bad_pipeline.json"
    pipe.write_text(json.dumps({**QUICK_PIPELINE, "stages": ["demodulate"]}))
    capsys.readouterr()
    out = workdir / "m.rkm"
    rc = main(["train", "--data", str(data), "--pipeline", str(pipe), "--out", str(out)])
    assert rc == 2
    assert "stage 0 must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b'{"name": ', b"\xff\xfe"], ids=["truncated", "not-utf8"])
def test_pipeline_file_that_is_not_json_exits_2(workdir, capsys, content):
    data = simulate(workdir)
    pipe = workdir / "bad_pipeline.json"
    pipe.write_bytes(content)
    capsys.readouterr()
    out = workdir / "m.rkm"
    rc = main(["train", "--data", str(data), "--pipeline", str(pipe), "--out", str(out)])
    assert rc == 2
    assert "pipeline file is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("column, value", [("label", 3), ("herald", 2)], ids=["label", "herald"])
@pytest.mark.parametrize("command", ["inspect", "train", "evaluate"])
def test_out_of_range_record_byte_exits_4(workdir, capsys, command, column, value):
    # the last 10 of 90 records get a label outside the states, or a herald
    # byte that is not a flag
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    raw = bytearray(data.read_bytes())
    record = 2 + 4 * 400
    header = len(raw) - 90 * record
    for row in range(80, 90):
        raw[header + row * record + ("label", "herald").index(column)] = value
    data.write_bytes(bytes(raw))
    capsys.readouterr()
    args = {
        "inspect": ["--data", str(data)],
        "train": ["--data", str(data), "--pipeline", "gmm", "--out", str(workdir / "m.rkm")],
        "evaluate": ["--model", str(model), "--data", str(data)],
    }[command]
    assert main([command, *args]) == 4
    assert f"row 80 has {column} byte {value}" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -2.0, 1e-300, 4.0])
@pytest.mark.parametrize("command", ["inspect", "train", "evaluate"])
def test_corrupt_header_sample_rate_exits_4(workdir, capsys, command, rate):
    # bytes 28-35 of the header hold the rate; the sidecar config says 2.0
    data = simulate(workdir)
    model = workdir / "gmm.rkm"
    assert main(["train", "--data", str(data), "--pipeline", "gmm", "--out", str(model)]) == 0
    raw = data.read_bytes()
    data.write_bytes(raw[:28] + struct.pack("<d", rate) + raw[36:])
    capsys.readouterr()
    args = {
        "inspect": ["--data", str(data)],
        "train": ["--data", str(data), "--pipeline", "gmm", "--out", str(workdir / "m.rkm")],
        "evaluate": ["--model", str(model), "--data", str(data)],
    }[command]
    assert main([command, *args]) == 4
    err = capsys.readouterr().err
    assert "header sample rate" in err
    assert ("differs from the sidecar" in err) == (rate in (1e-300, 4.0))


@pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -2.0])
def test_bad_header_sample_rate_exits_4_without_a_sidecar(workdir, capsys, rate):
    data = simulate(workdir)
    (workdir / "shots.rkd.json").unlink()
    raw = data.read_bytes()
    data.write_bytes(raw[:28] + struct.pack("<d", rate) + raw[36:])
    capsys.readouterr()
    assert main(["inspect", "--data", str(data)]) == 4
    assert "is not a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("pipeline", ["gmm", "quick"])
def test_model_with_non_finite_parameter_exits_4(workdir, capsys, pipeline, value):
    data = simulate(workdir)
    model = workdir / "m.rkm"
    spec = "gmm" if pipeline == "gmm" else str(workdir / "pipeline.json")
    assert main(["train", "--data", str(data), "--pipeline", spec, "--out", str(model)]) == 0
    model.write_bytes(model.read_bytes()[:-8] + np.array(value, "<f8").tobytes())
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 4
    assert "non-finite parameter" in capsys.readouterr().err


@pytest.mark.parametrize("max_shots", ["0", "-5"])
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_export_refuses_max_shots_below_one(workdir, capsys, fmt, max_shots):
    data = simulate(workdir)
    out = workdir / f"shots.{fmt}"
    capsys.readouterr()
    args = ["--data", str(data), "--format", fmt, "--max-shots", max_shots, "--out", str(out)]
    assert main(["export", *args]) == 2
    assert "--max-shots must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["export-csv", "export-svg", "train", "compare", "evaluate", "inspect"]
)
def test_a_file_without_shots_exits_2(workdir, capsys, command):
    # a well-formed file of zero records, which save_dataset never writes,
    # is refused where it is loaded, before any command-specific step
    empty = workdir / "empty.rkd"
    empty.write_bytes(struct.pack("<12sIQId", b"RKIT-DATASET", 1, 0, 400, 2.0))
    out = workdir / "out"
    data = ["--data", str(empty)]
    if command == "evaluate":
        model = workdir / "gmm.rkm"
        args = ["train", "--data", str(simulate(workdir)), "--pipeline", "gmm", "--out", str(model)]
        assert main(args) == 0
        capsys.readouterr()
        data = ["--model", str(model), *data]
    args = {
        "export-csv": ["export", *data, "--format", "csv", "--out", str(out)],
        "export-svg": ["export", *data, "--format", "svg", "--out", str(out)],
        "train": ["train", *data, "--pipeline", "gmm", "--out", str(out)],
        "compare": ["compare", *data, "--out", str(out)],
        "evaluate": ["evaluate", *data, "--out", str(out)],
        "inspect": ["inspect", *data],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {empty} holds no shots\n"
    assert captured.out == ""
    assert not out.exists()
