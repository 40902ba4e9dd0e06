import json

import numpy as np
import pytest

from readoutkit import Dataset, RawShot, save_dataset
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
    payload = json.loads(summary.read_text())
    assert set(payload) >= {"baseline", "primary", "gap", "disagreements", "latency_ms"}
    assert payload["baseline"]["name"] == "gmm"
    assert abs(payload["gap"]) <= 1.0
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


def test_unreadable_files_exit_4(workdir, capsys):
    rc = main(["evaluate", "--model", "missing.rkm", "--data", "missing.rkd"])
    assert rc == 4
    capsys.readouterr()
    garbage = workdir / "garbage.rkd"
    garbage.write_bytes(b"not a dataset at all")
    rc = main(["inspect", "--data", str(garbage)])
    assert rc == 4
    assert "file error:" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_training_exits_3(workdir, capsys):
    shots = []
    for k in range(30):
        samples = np.full(400, np.nan, dtype=np.float32)
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
    rc = main(
        [
            "train",
            "--data",
            str(bad),
            "--pipeline",
            str(workdir / "pipeline.json"),
            "--out",
            str(workdir / "never.rkm"),
        ]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


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
