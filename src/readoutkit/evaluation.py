"""Fidelity evaluation, model comparison, and disagreement forensics.

Fidelity is per-prepared-state classification accuracy; the headline number
is the unweighted mean over the three states, quoted with a pooled binomial
standard error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .pipeline import TrainedPipeline, integrated_points
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
    per_state = {}
    confusion = np.zeros((len(STATES), len(STATES)), dtype=int)
    for true, pred in zip(labels, preds):
        confusion[true, pred] += 1
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
class DisagreementRecord:
    """One test shot on which the two classifiers did not both succeed."""

    index: int
    label: int
    primary_pred: int
    baseline_pred: int
    point: tuple[float, float]
    had_transition: bool | None


@dataclass
class DisagreementReport:
    """Shots split by which classifier (if either) got them right."""

    primary_only_correct: list[DisagreementRecord]
    baseline_only_correct: list[DisagreementRecord]
    both_wrong: list[DisagreementRecord]

    def transition_fraction(self) -> float | None:
        """Among shots only the primary model classified correctly, the
        fraction whose true state path left its initial state mid-readout.
        ``None`` when ground-truth paths are unavailable or the set is
        empty."""
        recs = self.primary_only_correct
        if not recs or any(r.had_transition is None for r in recs):
            return None
        return float(np.mean([r.had_transition for r in recs]))

    def summary(self) -> dict:
        frac = self.transition_fraction()
        return {
            "primary_only_correct": len(self.primary_only_correct),
            "baseline_only_correct": len(self.baseline_only_correct),
            "both_wrong": len(self.both_wrong),
            "primary_only_transition_fraction": frac,
        }


def disagreements(
    shots: list[RawShot],
    primary_preds: np.ndarray,
    baseline_preds: np.ndarray,
    frequency: float,
) -> DisagreementReport:
    """Partition the test set by correctness of the two classifiers.

    Records carry each shot's plain integrated I-Q point, an ``(i, q)``
    pair of floats (for plotting), and whether its ground-truth path
    contains a transition, when paths are attached.
    """
    labels = np.array([s.label for s in shots], dtype=int)
    primary_preds = np.asarray(primary_preds, dtype=int)
    baseline_preds = np.asarray(baseline_preds, dtype=int)
    if not (len(labels) == len(primary_preds) == len(baseline_preds)):
        raise ConfigurationError("prediction vectors must match the shot list")
    pts = integrated_points(shots, frequency)

    def record(k: int) -> DisagreementRecord:
        s = shots[k]
        return DisagreementRecord(
            index=k,
            label=int(labels[k]),
            primary_pred=int(primary_preds[k]),
            baseline_pred=int(baseline_preds[k]),
            point=(float(pts[k, 0]), float(pts[k, 1])),
            had_transition=None if s.true_path is None else s.true_path.has_transition,
        )

    p_ok = primary_preds == labels
    b_ok = baseline_preds == labels
    return DisagreementReport(
        primary_only_correct=[record(k) for k in np.flatnonzero(p_ok & ~b_ok)],
        baseline_only_correct=[record(k) for k in np.flatnonzero(~p_ok & b_ok)],
        both_wrong=[record(k) for k in np.flatnonzero(~p_ok & ~b_ok)],
    )


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
