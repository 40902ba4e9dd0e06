import dataclasses

import numpy as np
import pytest

from readoutkit import (
    ConfigurationError,
    DataError,
    binomial_stderr,
    confusion_table,
    disagreements,
    evaluate,
    fidelity_table,
    report_from_predictions,
    scatter_svg,
    standard_pipelines,
    stratified_split,
    train_pipeline,
)


def test_split_sizes_and_order(quiet_dataset):
    train, test = stratified_split(quiet_dataset.shots, train_frac=0.8)
    assert len(train) == 3 * 48
    assert len(test) == 3 * 12
    for label in (0, 1, 2):
        tr_ids = [s.shot_id for s in train if s.label == label]
        te_ids = [s.shot_id for s in test if s.label == label]
        assert len(tr_ids) == 48 and len(te_ids) == 12
        # order-preserving: every retained id in train precedes every test id
        assert max(tr_ids) < min(te_ids)
        assert tr_ids == sorted(tr_ids)
    # repeated calls give the identical partition
    train2, test2 = stratified_split(quiet_dataset.shots, train_frac=0.8)
    assert [s.shot_id for s in train2] == [s.shot_id for s in train]
    assert [s.shot_id for s in test2] == [s.shot_id for s in test]


def test_split_floor_behaviour(quiet_dataset):
    # 60 per class at 0.25 -> floor gives exactly 15 train, 45 test
    train, test = stratified_split(quiet_dataset.shots, train_frac=0.25)
    assert len(train) == 45 and len(test) == 135


def test_split_rejects_bad_inputs(quiet_dataset):
    with pytest.raises(ConfigurationError):
        stratified_split(quiet_dataset.shots, train_frac=0.0)
    with pytest.raises(ConfigurationError):
        stratified_split(quiet_dataset.shots, train_frac=1.0)
    one_each = [s for s in quiet_dataset.shots[:120]][:2]
    with pytest.raises(DataError):
        stratified_split(one_each[:1], train_frac=0.5)


def test_binomial_stderr_value():
    got = binomial_stderr(0.96, 15000)
    assert abs(got - np.sqrt(0.96 * 0.04 / 15000)) < 1e-15
    assert abs(got - 0.0016) < 2e-5
    with pytest.raises(ConfigurationError):
        binomial_stderr(0.5, 0)


def _report_with_rates():
    # 10 shots per state; 1, 2, 3 errors respectively
    labels = np.repeat([0, 1, 2], 10)
    preds = labels.copy()
    preds[0] = 1
    preds[10] = 0
    preds[11] = 2
    preds[20] = 0
    preds[21] = 0
    preds[22] = 1
    order = np.random.default_rng(3).permutation(30)
    return report_from_predictions(labels[order], preds[order], name="toy")


def test_report_per_state_and_average():
    rep = _report_with_rates()
    assert rep.per_state == {0: 0.9, 1: 0.8, 2: 0.7}
    assert abs(rep.average - 0.8) < 1e-12
    assert rep.n_test == 30
    assert abs(rep.stderr - binomial_stderr(0.8, 30)) < 1e-15


def test_report_confusion_counts():
    rep = _report_with_rates()
    assert rep.confusion.sum() == 30
    assert list(rep.confusion.sum(axis=1)) == [10, 10, 10]
    assert rep.confusion[0, 1] == 1
    assert rep.confusion[1, 0] == 1 and rep.confusion[1, 2] == 1
    assert rep.confusion[2, 0] == 2 and rep.confusion[2, 1] == 1
    assert rep.confusion[0, 0] == 9


def test_report_requires_every_state():
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(DataError):
        report_from_predictions(labels, labels)
    with pytest.raises(ConfigurationError):
        report_from_predictions(np.array([0, 1, 2]), np.array([0, 1]))


def test_report_to_dict_is_json_ready():
    import json

    rep = _report_with_rates()
    d = rep.to_dict()
    json.dumps(d)
    assert d["per_state"]["1"] == 0.8
    assert "predictions" not in d


def test_evaluate_matches_manual_report(quiet_dataset):
    fitted = train_pipeline(quiet_dataset, standard_pipelines()["gmm"])
    test = quiet_dataset.shots[::5]
    rep = evaluate(fitted, test)
    labels = np.array([s.label for s in test])
    manual = report_from_predictions(labels, fitted.predict(test), name="gmm")
    assert rep.name == "gmm"
    assert rep.per_state == manual.per_state
    assert np.array_equal(rep.confusion, manual.confusion)


def test_fidelity_table_layout():
    labels = np.repeat([0, 1, 2], 500)
    preds = labels.copy()
    # per-state error counts 6, 14, 19 -> 0.988, 0.972, 0.962
    for start, wrong in ((0, 6), (500, 14), (1000, 19)):
        for k in range(wrong):
            preds[start + k] = (labels[start + k] + 1) % 3
    rep = report_from_predictions(labels, preds, name="bandpass_lstm")
    text = fidelity_table([rep])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("classifier")
    assert "0.9880" in lines[1] and "0.9720" in lines[1] and "0.9620" in lines[1]
    assert "0.9740" in lines[1]
    assert lines[1].startswith("bandpass_lstm")


def test_confusion_table_layout():
    rep = _report_with_rates()
    text = confusion_table(rep)
    lines = text.splitlines()
    assert "rows = prepared" in lines[0]
    assert lines[1].split() == ["pred", "0", "pred", "1", "pred", "2"]
    assert lines[2].split() == ["state", "0", "9", "1", "0"]
    assert lines[4].split() == ["state", "2", "2", "1", "7"]


def test_disagreement_partition(quiet_dataset):
    shots = quiet_dataset.shots[:30]
    labels = np.array([s.label for s in shots])
    primary = labels.copy()
    baseline = labels.copy()
    baseline[[0, 1]] = (labels[[0, 1]] + 1) % 3
    primary[[2, 3, 4]] = (labels[[2, 3, 4]] + 1) % 3
    primary[5] = (labels[5] + 1) % 3
    baseline[5] = (labels[5] + 2) % 3
    rep = disagreements(shots, primary, baseline, frequency=0.1)
    assert [r.index for r in rep.primary_only_correct] == [0, 1]
    assert [r.index for r in rep.baseline_only_correct] == [2, 3, 4]
    assert [r.index for r in rep.both_wrong] == [5]
    rec = rep.primary_only_correct[0]
    assert rec.label == labels[0]
    assert rec.baseline_pred == baseline[0]
    i, q = rec.point
    assert np.isfinite(i) and np.isfinite(q)
    # fixture simulates without relaxation, so no path ever leaves its state
    assert rep.transition_fraction() == 0.0
    summary = rep.summary()
    assert summary["primary_only_correct"] == 2
    assert summary["both_wrong"] == 1


def test_transition_fraction_none_cases(quiet_dataset):
    shots = quiet_dataset.shots[:6]
    labels = np.array([s.label for s in shots])
    rep = disagreements(shots, labels, labels, frequency=0.1)
    assert rep.transition_fraction() is None  # no disagreements at all

    stripped = [dataclasses.replace(s, true_path=None) for s in shots]
    baseline = labels.copy()
    baseline[0] = (labels[0] + 1) % 3
    rep = disagreements(stripped, labels, baseline, frequency=0.1)
    assert rep.transition_fraction() is None  # ground truth unavailable


def test_transition_fraction_counts_decayed(decaying_dataset):
    shots, labels = [], []
    for s in decaying_dataset.shots:
        if s.label == 2:
            shots.append(s)
            labels.append(2)
    labels = np.array(labels)
    primary = labels.copy()
    baseline = labels.copy()
    had = np.array([s.true_path.has_transition for s in shots])
    flip = np.flatnonzero(had)[:4].tolist() + np.flatnonzero(~had)[:1].tolist()
    baseline[flip] = 0
    rep = disagreements(shots, primary, baseline, frequency=0.1)
    assert len(rep.primary_only_correct) == 5
    assert rep.transition_fraction() == pytest.approx(0.8)


def test_disagreements_rejects_mismatch(quiet_dataset):
    shots = quiet_dataset.shots[:4]
    labels = np.array([s.label for s in shots])
    with pytest.raises(ConfigurationError):
        disagreements(shots, labels[:3], labels, frequency=0.1)


def test_scatter_svg_output(tmp_path, rng):
    pts = rng.normal(size=(40, 2))
    labels = rng.integers(0, 3, size=40)
    path = tmp_path / "iq.svg"
    scatter_svg(pts, labels, path)
    text = path.read_text()
    assert text.count("<circle") == 40
    assert text.startswith("<svg")
    with pytest.raises(ConfigurationError):
        scatter_svg(pts[:, :1], labels, path)
