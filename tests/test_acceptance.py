"""Acceptance checks: numerical oracles, a calibrated benchmark, determinism.

Each check appends one PASS/FAIL line to the summary echoed at the end of
the pytest run.  The benchmark checks (a05-a07) generate datasets at full
scale and dominate the suite's runtime; they carry the ``slow`` marker, so
``pytest -m "not slow"`` runs every other check in seconds.
"""

import json
import time

import numpy as np
import pytest

import readoutkit as rk
from readoutkit.cli import main as cli_main


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_a01_gradients_match_finite_differences(acceptance_log):
    """Analytic gradients agree with central differences on 100 random nets."""
    t0 = time.perf_counter()
    draw = np.random.default_rng(2024)
    worst = 0.0
    n_instances = 0
    for k in range(100):
        out = int(draw.integers(2, 4))
        output = "softmax" if draw.integers(0, 2) else "sigmoid"
        if k % 2 == 0:
            hidden = tuple(
                int(draw.integers(1, 9)) for _ in range(int(draw.integers(1, 3)))
            )
            steps = int(draw.integers(2, 11))
            batch = int(draw.integers(1, 5))
            din = int(draw.integers(1, 4))
            model = rk.LstmNetwork(
                input_dim=din,
                hidden=hidden,
                output_dim=out,
                output_bias=bool(draw.integers(0, 2)),
                output=output,
                seed=int(draw.integers(0, 2**31)),
            )
            X = draw.normal(size=(steps, batch, din)).transpose(1, 0, 2)
        else:
            hidden = tuple(
                int(draw.integers(1, 9)) for _ in range(int(draw.integers(1, 3)))
            )
            batch = int(draw.integers(2, 6))
            din = int(draw.integers(1, 13))
            model = rk.DenseNetwork(
                input_dim=din,
                hidden=hidden,
                output_dim=out,
                output=output,
                seed=int(draw.integers(0, 2**31)),
            )
            X = draw.normal(size=(batch, din))
        labels = draw.integers(0, out, size=batch)
        weights = draw.uniform(0.2, 2.0, size=batch)
        err = rk.gradient_check(
            model,
            X,
            labels,
            weights=weights,
            n_checks=12,
            eps=1e-5,
            seed=int(draw.integers(0, 2**31)),
        )
        worst = max(worst, err)
        n_instances += 1
    elapsed = time.perf_counter() - t0
    ok = n_instances >= 100 and worst < 1e-4 and elapsed < 60.0
    acceptance_log(
        f"[a01] {_verdict(ok)} gradient check: {n_instances} instances, "
        f"worst relative error {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)"
    )
    assert n_instances >= 100
    assert worst < 1e-4
    assert elapsed < 60.0


def test_a02_recurrent_parameter_count(acceptance_log):
    """The 2-input, 16-unit, 3-class bias-free network has 1264 parameters."""
    declared = rk.lstm_param_count(2, (16,), 3, output_bias=False)
    model = rk.LstmNetwork(input_dim=2, hidden=(16,), output_dim=3, output_bias=False)
    actual = sum(p.size for p in model.param_arrays())
    ok = declared == 1264 and actual == 1264
    acceptance_log(
        f"[a02] {_verdict(ok)} parameter count: declared {declared}, "
        f"allocated {actual} (== 1264)"
    )
    assert declared == 1264
    assert actual == 1264


def _tensor_exp_levels(delta, order):
    # closed form for one straight segment: level k is delta^(x)k / k!
    levels = [np.array(1.0)]
    for k in range(1, order + 1):
        levels.append(np.multiply.outer(levels[-1], delta) / k)
    return levels


def _tensor_product_levels(a, b, order):
    # graded product of two level lists
    out = [np.array(1.0)]
    for k in range(1, order + 1):
        term = np.zeros((len(b[1]),) * k)
        for j in range(k + 1):
            term = term + np.multiply.outer(a[j], b[k - j])
        out.append(term)
    return out


def _flatten_levels(levels):
    return np.concatenate([lvl.reshape(-1) for lvl in levels])


def test_a03_signature_oracle(acceptance_log):
    """Order-5 signature: 63 entries, exact straight segments, Chen identity."""
    draw = np.random.default_rng(77)
    length = rk.signature_length(2, 5)
    flat = rk.trajectory_signature(draw.normal(size=(9, 2)), order=5)
    length_ok = length == 63 and flat.shape == (63,)

    seg_err = 0.0
    for _ in range(25):
        start = draw.normal(size=2)
        delta = draw.normal(size=2)
        sig = rk.trajectory_signature(np.stack([start, start + delta]), order=5)
        expect = _flatten_levels(_tensor_exp_levels(delta, 5))
        seg_err = max(seg_err, np.max(np.abs(sig - expect)))

    chen_err = 0.0
    for _ in range(25):
        pts = draw.normal(size=(3, 2))
        sig_ab = rk.trajectory_signature(pts, order=5)
        a = _tensor_exp_levels(pts[1] - pts[0], 5)
        b = _tensor_exp_levels(pts[2] - pts[1], 5)
        expect = _flatten_levels(_tensor_product_levels(a, b, 5))
        chen_err = max(chen_err, np.max(np.abs(sig_ab - expect)))

    ok = length_ok and seg_err < 1e-10 and chen_err < 1e-8
    acceptance_log(
        f"[a03] {_verdict(ok)} signature: {length} entries (== 63), "
        f"straight-segment error {seg_err:.2e} (< 1e-10), "
        f"two-segment product error {chen_err:.2e} (< 1e-8)"
    )
    assert length_ok
    assert seg_err < 1e-10
    assert chen_err < 1e-8


def test_a04_filter_oracle(acceptance_log):
    """Brick-wall band limits: keep in-band, kill +20 MHz, invert exactly."""
    n, rate = 2000, 2.0
    t = np.arange(n) / rate
    draw = np.random.default_rng(4)

    inband = np.cos(2 * np.pi * 0.1 * t + 0.3)
    kept = rk.bandpass(inband, rate, center=0.1, half_width=0.005)
    inband_rel = np.linalg.norm(kept - inband) / np.linalg.norm(inband)

    outband = np.cos(2 * np.pi * 0.12 * t)
    removed = rk.bandpass(outband, rate, center=0.1, half_width=0.005)
    out_ratio = np.sqrt(np.mean(removed**2)) / np.sqrt(np.mean(outband**2))

    x = draw.normal(size=n)
    round_err = np.max(np.abs(rk.inverse_fft(rk.forward_fft(x)) - x))

    ok = inband_rel < 1e-6 and out_ratio <= 1e-6 and round_err < 1e-10
    acceptance_log(
        f"[a04] {_verdict(ok)} filter: in-band error {inband_rel:.2e} (< 1e-6), "
        f"out-of-band residual {out_ratio:.2e} (<= 1e-6), "
        f"round-trip error {round_err:.2e} (< 1e-10)"
    )
    assert inband_rel < 1e-6
    assert out_ratio <= 1e-6
    assert round_err < 1e-10


@pytest.mark.slow
def test_a05_easy_data_sanity(acceptance_log):
    """Both classifiers reach 0.999 fidelity on separable, decay-free data."""
    cfg = rk.easy_config(seed=7)
    ds = rk.generate_dataset(cfg, shots_per_state=5000)
    train_shots, test_shots = rk.stratified_split(ds.shots)
    # coarse bins keep per-step SNR high so the fixed epoch budget saturates
    pipes = rk.standard_pipelines(frequency=cfg.f_if, bin_size=100)

    gmm = rk.train_pipeline(train_shots, pipes["gmm"])
    rep_g = rk.evaluate(gmm, test_shots)

    desc = pipes["bandpass_lstm"]
    desc["train"] = {"epochs": 100, "learning_rate": 1e-3, "seed": 0}
    lstm = rk.train_pipeline(train_shots, desc)
    rep_l = rk.evaluate(lstm, test_shots)

    ok = rep_g.average >= 0.999 and rep_l.average >= 0.999
    acceptance_log(
        f"[a05] {_verdict(ok)} easy data: gmm {rep_g.average:.4f}, "
        f"lstm {rep_l.average:.4f} (both >= 0.999, n_test {rep_g.n_test})"
    )
    assert rep_g.average >= 0.999
    assert rep_l.average >= 0.999


@pytest.fixture(scope="module")
def benchmark_runs():
    """Three-seed benchmark shared by the headline and attribution checks:
    each seed's ``Comparison`` of the LSTM against the gmm baseline."""
    t0 = time.perf_counter()
    runs = {}
    for seed in (0, 1, 2):
        cfg = rk.SimConfig(seed=seed)
        ds = rk.generate_dataset(cfg, shots_per_state=25000)
        train_shots, test_shots = rk.stratified_split(ds.shots)
        nn_train, _ = rk.stratified_split(train_shots, train_frac=0.25)
        del ds

        pipes = rk.standard_pipelines(frequency=cfg.f_if)
        gmm = rk.train_pipeline(train_shots, pipes["gmm"])

        desc = pipes["bandpass_lstm"]
        desc["train"] = {"epochs": 100, "learning_rate": 1e-3, "seed": seed}
        lstm = rk.train_pipeline(nn_train, desc)

        runs[seed] = rk.compare_pipelines(lstm, gmm, test_shots)
        del train_shots, test_shots, nn_train
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.mark.slow
def test_a06_headline_benchmark(acceptance_log, benchmark_runs):
    """Integration baseline lands in its band; the sequence model beats it."""
    runs = benchmark_runs["runs"]
    elapsed = benchmark_runs["elapsed"]
    cmps = runs.values()
    ok = (
        all(0.93 <= c.baseline.average <= 0.97 for c in cmps)
        and all(c.gap >= 0.005 for c in cmps)
        and all(c.baseline.n_test == 15000 for c in cmps)
        and elapsed <= 1800.0
    )
    detail = "; ".join(
        f"seed {seed}: gmm {c.baseline.average:.4f}, lstm {c.primary.average:.4f}, "
        f"gap {c.gap:+.4f} ± {c.gap_stderr:.4f}"
        for seed, c in runs.items()
    )
    acceptance_log(
        f"[a06] {_verdict(ok)} benchmark: {detail}; "
        f"gmm in [0.93, 0.97], gaps >= 0.005, {elapsed:.0f}s (<= 1800s)"
    )
    for c in cmps:
        assert 0.93 <= c.baseline.average <= 0.97
        assert c.gap >= 0.005
        assert c.baseline.n_test == 15000
    assert elapsed <= 1800.0


@pytest.mark.slow
def test_a07_disagreement_attribution(acceptance_log, benchmark_runs):
    """Most shots only the sequence model gets right contain a transition."""
    reports = {seed: c.disagreements for seed, c in benchmark_runs["runs"].items()}
    wins = sum(len(d.primary_only_correct) for d in reports.values())
    with_transition = sum(d.primary_only_transitions() for d in reports.values())
    frac = with_transition / wins if wins else 0.0
    per_seed = "; ".join(
        f"seed {seed}: {d.primary_only_transitions()}/{len(d.primary_only_correct)}"
        for seed, d in reports.items()
    )
    ok = wins > 0 and frac >= 0.60
    acceptance_log(
        f"[a07] {_verdict(ok)} attribution: {with_transition}/{wins} = {frac:.3f} "
        f"of sequence-only wins had a mid-readout transition (>= 0.60); {per_seed}"
    )
    assert wins > 0
    assert frac >= 0.60


def test_a08_decay_rate_calibration(acceptance_log):
    """Monte Carlo transition fractions match 1 - exp(-T/t1) to 3 sigma."""
    cfg = rk.SimConfig(t1=(24000.0, 16000.0), seed=0)
    n = 100_000
    draw = np.random.default_rng(2718)
    lines = []
    ok = True
    for state, t1 in ((1, 24000.0), (2, 16000.0)):
        hits = sum(
            rk.sample_state_path(state, cfg, draw).has_transition for _ in range(n)
        )
        observed = hits / n
        expected = 1.0 - np.exp(-cfg.duration / t1)
        sigma = np.sqrt(expected * (1.0 - expected) / n)
        pull = abs(observed - expected) / sigma
        ok = ok and pull <= 3.0
        lines.append(
            f"state {state}: {observed:.5f} vs {expected:.5f} ({pull:.2f} sigma)"
        )
    acceptance_log(
        f"[a08] {_verdict(ok)} decay calibration at n={n}: "
        + "; ".join(lines)
        + " (<= 3 sigma)"
    )
    assert ok


def test_a09_end_to_end_determinism(acceptance_log, tmp_path):
    """simulate -> train -> evaluate twice gives byte-identical artifacts."""
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(
        json.dumps(
            {"duration": 200.0, "t1": [800.0, 600.0], "noise_sigma": 2.0, "seed": 5}
        )
    )
    pipe_file = tmp_path / "pipeline.json"
    pipe_file.write_text(
        json.dumps(
            {
                "name": "det_check",
                "stages": [
                    {"op": "demodulate", "frequency": 0.1},
                    {"op": "bin", "size": 40},
                ],
                "model": {"kind": "lstm", "hidden": [8]},
                "train": {"epochs": 3, "learning_rate": 1e-3, "seed": 0},
            }
        )
    )

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        data, model, report = d / "shots.rkd", d / "model.rkm", d / "report.json"
        assert (
            cli_main(
                [
                    "simulate",
                    "--config",
                    str(cfg_file),
                    "--shots-per-state",
                    "40",
                    "--out",
                    str(data),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "train",
                    "--data",
                    str(data),
                    "--pipeline",
                    str(pipe_file),
                    "--out",
                    str(model),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "evaluate",
                    "--model",
                    str(model),
                    "--data",
                    str(data),
                    "--out",
                    str(report),
                ]
            )
            == 0
        )
        return [
            data.read_bytes(),
            (d / "shots.rkd.json").read_bytes(),
            model.read_bytes(),
            (d / "model.rkm.json").read_bytes(),
            report.read_bytes(),
        ]

    first = run("first")
    second = run("second")
    matches = [a == b for a, b in zip(first, second)]
    ok = all(matches)
    names = ("dataset", "dataset sidecar", "model", "model sidecar", "report")
    acceptance_log(
        f"[a09] {_verdict(ok)} determinism: "
        + ", ".join(f"{n} {'==' if m else '!='}" for n, m in zip(names, matches))
    )
    assert ok


def test_a10_single_shot_latency(acceptance_log):
    """Informational: one filtered 80-step, 16-unit classification's latency."""
    cfg = rk.SimConfig(seed=3)
    ds = rk.generate_dataset(cfg, shots_per_state=10)
    desc = {
        "name": "latency_probe",
        "stages": [
            {"op": "bandpass", "center": cfg.f_if, "half_width": 0.005},
            {"op": "demodulate", "frequency": cfg.f_if},
            {"op": "bin", "size": 25},
        ],
        "model": {"kind": "lstm", "hidden": [16]},
        "train": {"epochs": 1, "seed": 0},
    }
    fitted = rk.train_pipeline(ds, desc)
    shot = ds.shots[0]
    steps = len(shot.samples) // 25
    fitted.predict_one(shot)
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        fitted.predict_one(shot)
    latency_ms = (time.perf_counter() - t0) / reps * 1e3
    acceptance_log(
        f"[a10] INFO latency: {latency_ms:.2f} ms per shot "
        f"({steps} binned steps, 16 hidden units; reference bound 50 ms, "
        f"not gating)"
    )
    assert latency_ms > 0.0
