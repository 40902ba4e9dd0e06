"""Fidelity evaluation, model comparison, and disagreement forensics.

Fidelity is per-prepared-state classification accuracy; the headline number
is the unweighted mean over the three states, quoted with a pooled binomial
standard error.  :func:`compare_pipelines` makes the paper's comparison: two
pipelines' reports on one test set, the gap with its paired standard error,
and the shots each model alone got right."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .pipeline import TrainedPipeline, demodulation_frequency, integrated_points
from .sim import STATES, RawShot


def stratified_split(
    shots: list[RawShot], train_frac: float = 0.8
) -> tuple[list[RawShot], list[RawShot]]:
    """Per-class order-preserving split.

    Each class contributes its first ``floor(train_frac * n_class)`` shots
    to the training set and the remainder to the test set, so repeated calls
    on the same dataset are identical.
    """
    if not 0 < train_frac < 1:
        raise ConfigurationError("train_frac must lie strictly between 0 and 1")
    by_class: dict[int, list[RawShot]] = {}
    for s in shots:
        by_class.setdefault(s.label, []).append(s)
    train, test = [], []
    for label in sorted(by_class):
        group = by_class[label]
        cut = int(np.floor(train_frac * len(group)))
        if cut == 0 or cut == len(group):
            raise DataError(f"class {label} has too few shots to split")
        train.extend(group[:cut])
        test.extend(group[cut:])
    return train, test


@dataclass
class EvalReport:
    """Per-state and aggregate fidelity of one classifier on one test set."""

    name: str
    per_state: dict[int, float]
    average: float
    stderr: float
    confusion: np.ndarray
    n_test: int
    predictions: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "per_state": {str(k): v for k, v in self.per_state.items()},
            "average": self.average,
            "stderr": self.stderr,
            "confusion": self.confusion.tolist(),
            "n_test": self.n_test,
        }


def binomial_stderr(p: float, n: int) -> float:
    """Standard error of a proportion estimated from n Bernoulli trials."""
    if n < 1:
        raise ConfigurationError("need at least one trial")
    return float(np.sqrt(p * (1.0 - p) / n))


def evaluate(pipeline: TrainedPipeline, shots: list[RawShot]) -> EvalReport:
    labels = np.array([s.label for s in shots], dtype=int)
    return report_from_predictions(labels, pipeline.predict(shots), name=pipeline.name)


def report_from_predictions(
    labels: np.ndarray, preds: np.ndarray, name: str = "classifier"
) -> EvalReport:
    labels = np.asarray(labels, dtype=int)
    preds = np.asarray(preds, dtype=int)
    if labels.shape != preds.shape or labels.size == 0:
        raise ConfigurationError("labels and predictions must match and be non-empty")
    if not (np.isin(labels, STATES).all() and np.isin(preds, STATES).all()):
        raise ConfigurationError(f"labels and predictions must be states {STATES}")
    per_state = {}
    confusion = np.zeros((len(STATES), len(STATES)), dtype=int)
    np.add.at(confusion, (labels, preds), 1)
    for s in STATES:
        mask = labels == s
        if not np.any(mask):
            raise DataError(f"test set has no shots prepared in state {s}")
        per_state[s] = float(np.mean(preds[mask] == s))
    avg = float(np.mean(list(per_state.values())))
    return EvalReport(
        name=name,
        per_state=per_state,
        average=avg,
        stderr=binomial_stderr(avg, len(labels)),
        confusion=confusion,
        n_test=len(labels),
        predictions=preds,
    )


@dataclass
class DisagreementReport:
    """Test shots split by which classifier (if either) got them right, as
    index arrays into the test set, beside its labels, plain integrated I-Q
    points (n, 2) and transition flags (bool; ``None`` without ground-truth
    paths).  It holds no reference to the shots."""

    labels: np.ndarray
    points: np.ndarray
    transitions: np.ndarray | None
    primary_only_correct: np.ndarray
    baseline_only_correct: np.ndarray
    both_wrong: np.ndarray

    def primary_only_transitions(self) -> int | None:
        """How many shots only the primary model classified correctly had a
        mid-readout transition; ``None`` without ground-truth paths."""
        if self.transitions is not None:
            return int(np.count_nonzero(self.transitions[self.primary_only_correct]))
        return None

    def transition_fraction(self) -> float | None:
        """Among shots only the primary model classified correctly, the
        fraction whose true state path left its initial state mid-readout.
        ``None`` when ground-truth paths are unavailable or the set is
        empty."""
        hits, wins = self.primary_only_transitions(), len(self.primary_only_correct)
        return None if hits is None or not wins else hits / wins

    def summary(self) -> dict:
        return {
            "primary_only_correct": len(self.primary_only_correct),
            "baseline_only_correct": len(self.baseline_only_correct),
            "both_wrong": len(self.both_wrong),
            "primary_only_transition_fraction": self.transition_fraction(),
        }


def disagreements(
    shots: list[RawShot],
    primary_preds: np.ndarray,
    baseline_preds: np.ndarray,
    frequency: float,
) -> DisagreementReport:
    """Partition the test set by correctness of the two classifiers."""
    labels = np.array([s.label for s in shots], dtype=int)
    primary_preds = np.asarray(primary_preds, dtype=int)
    baseline_preds = np.asarray(baseline_preds, dtype=int)
    if not (len(labels) == len(primary_preds) == len(baseline_preds)):
        raise ConfigurationError("prediction vectors must match the shot list")
    paths = [s.true_path for s in shots]
    transitions = None if None in paths else np.array([p.has_transition for p in paths])
    p_ok = primary_preds == labels
    b_ok = baseline_preds == labels
    return DisagreementReport(
        labels=labels,
        points=integrated_points(shots, frequency),
        transitions=transitions,
        primary_only_correct=np.flatnonzero(p_ok & ~b_ok),
        baseline_only_correct=np.flatnonzero(~p_ok & b_ok),
        both_wrong=np.flatnonzero(~p_ok & ~b_ok),
    )


@dataclass
class Comparison:
    """Two trained pipelines scored on the same test shots."""

    primary: EvalReport
    baseline: EvalReport
    disagreements: DisagreementReport

    @property
    def gap(self) -> float:
        return self.primary.average - self.baseline.average

    @property
    def gap_stderr(self) -> float:
        """Paired standard error of the gap (McNemar, *Psychometrika* 12,
        1947): with b_s primary-only and c_s baseline-only wins among the n_s
        shots of state s, ``sqrt(sum_s (b_s + c_s - (b_s - c_s)**2 / n_s) /
        n_s**2) / 3``, as the average weights the states equally."""
        dis = self.disagreements
        n = np.bincount(dis.labels, minlength=len(STATES))
        b = np.bincount(dis.labels[dis.primary_only_correct], minlength=len(STATES))
        c = np.bincount(dis.labels[dis.baseline_only_correct], minlength=len(STATES))
        return float(np.sqrt(np.sum((b + c - (b - c) ** 2 / n) / n**2)) / len(STATES))

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "primary": self.primary.to_dict(),
            "gap": self.gap,
            "gap_stderr": self.gap_stderr,
            "disagreements": self.disagreements.summary(),
        }


def compare_pipelines(
    primary: TrainedPipeline, baseline: TrainedPipeline, shots: list[RawShot]
) -> Comparison:
    """Evaluate both pipelines once on ``shots`` and partition the shots by
    which of them got each right; the disagreement report's integrated
    points use the baseline's own ``demodulate`` frequency."""
    rep_b, rep_p = evaluate(baseline, shots), evaluate(primary, shots)
    frequency = demodulation_frequency(baseline.descriptor)
    dis = disagreements(shots, rep_p.predictions, rep_b.predictions, frequency)
    return Comparison(primary=rep_p, baseline=rep_b, disagreements=dis)


def fidelity_table(reports: list[EvalReport]) -> str:
    """Fixed-width text table: one row per classifier."""
    lines = [
        f"{'classifier':<18}{'state 0':>9}{'state 1':>9}{'state 2':>9}{'average':>10}{'stderr':>9}"
    ]
    for r in reports:
        lines.append(
            f"{r.name:<18}"
            f"{r.per_state[0]:>9.4f}{r.per_state[1]:>9.4f}{r.per_state[2]:>9.4f}"
            f"{r.average:>10.4f}{r.stderr:>9.4f}"
        )
    return "\n".join(lines)


def confusion_table(report: EvalReport) -> str:
    lines = [f"confusion ({report.name}), rows = prepared, columns = assigned"]
    header = "        " + "".join(f"{f'pred {s}':>9}" for s in STATES)
    lines.append(header)
    for s in STATES:
        row = "".join(f"{int(report.confusion[s, c]):>9}" for c in STATES)
        lines.append(f"state {s} {row}")
    return "\n".join(lines)


_SVG_COLORS = ("#1f77b4", "#2ca02c", "#d62728")


def scatter_svg(points: np.ndarray, labels: np.ndarray, path: str | Path) -> None:
    """Write a minimal 480-pixel SVG scatter of integrated I-Q points by class."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigurationError("points must be (n, 2)")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    size, margin = 480, 20.0
    scale = (size - 2 * margin) / span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for p, lab in zip(pts, labels):
        x = margin + (p[0] - lo[0]) * scale[0]
        y = size - margin - (p[1] - lo[1]) * scale[1]
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" '
            f'fill="{_SVG_COLORS[lab % 3]}" fill-opacity="0.5"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
