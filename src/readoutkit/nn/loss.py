"""Per-sample weighted classification losses and their logit gradients, the
prediction path the networks share, and the shot block of all batch work.

Both losses normalize by the total sample weight, so duplicating a sample is
exactly equivalent to doubling its weight, and a zero total weight yields
zero loss and zero gradients rather than a division error.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .activations import log_softmax, sigmoid, softmax

# the output squashings a network can declare: softmax over exclusive
# classes, or an independent sigmoid per class
OUTPUTS = ("softmax", "sigmoid")
# shots per block of all batch work (front end, prediction, every lstm
# product over the batch); ``nn/lstm.py`` says why the block is fixed
BATCH_BLOCK = 256


def batch_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``BATCH_BLOCK`` covering ``range(n)``."""
    return [slice(s, s + BATCH_BLOCK) for s in range(0, n, BATCH_BLOCK)]


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.zeros((len(labels), n_classes))
    y[np.arange(len(labels)), labels] = 1.0
    return y


def weighted_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    output: str = "softmax",
) -> tuple[float, np.ndarray]:
    """(scalar loss, dloss/dlogits) for a batch.

    ``output='softmax'`` is categorical cross-entropy over mutually
    exclusive classes; ``output='sigmoid'`` scores each class as an
    independent binary decision and sums the per-class terms.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, n_classes = logits.shape
    if labels.shape != (n,):
        raise ConfigurationError("labels must be a vector matching the batch")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ConfigurationError("label out of range for the logit width")

    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ConfigurationError("weights must be a vector matching the batch")
        if np.any(w < 0):
            raise ConfigurationError("weights must be >= 0")
    w_total = float(np.sum(w))
    if w_total == 0.0:
        return 0.0, np.zeros_like(logits)

    y = _one_hot(labels, n_classes)
    if output == "softmax":
        logp = log_softmax(logits, axis=1)
        loss = float(-np.sum(w * logp[np.arange(n), labels]) / w_total)
        dlogits = (softmax(logits, axis=1) - y) * (w / w_total)[:, None]
    elif output == "sigmoid":
        # -log(sigmoid(z)) = log(1 + exp(-z)) and its mirror, kept in log space
        per_class = y * np.logaddexp(0.0, -logits) + (1.0 - y) * np.logaddexp(0.0, logits)
        loss = float(np.sum(w * per_class.sum(axis=1)) / w_total)
        dlogits = (sigmoid(logits) - y) * (w / w_total)[:, None]
    else:
        raise ConfigurationError(f"output must be one of {OUTPUTS}")
    return loss, dlogits


class Classifier:
    """What both networks share: building from an architecture block, the
    parameter count, and prediction for a network with ``_block_logits``
    and ``output``.  Both networks take the shots on axis 0, (N, D) or
    (N, T, D): logits from ``_block_logits`` run over views of at most
    ``BATCH_BLOCK`` shots, one lstm column block each, written into one
    preallocated array, so memory does not grow with the number of shots.
    A set of at most one block is one call.  ``_block_logits`` gives
    ``forward``'s logits: the dense network's is ``forward``, the lstm's
    runs its layers without training caches."""

    @classmethod
    def from_arch(cls, arch: dict, seed: int = 0):
        """The network an architecture block describes: its fields other
        than ``kind`` are the constructor's arguments."""
        return cls(**{k: v for k, v in arch.items() if k != "kind"}, seed=seed)

    def param_count(self) -> int:
        return sum(p.size for p in self.param_arrays())

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or len(x) <= BATCH_BLOCK:
            return self._block_logits(x)  # which refuses a wrong shape
        logits = np.empty((len(x), self.output_dim))
        for s in batch_blocks(len(x)):
            logits[s] = self._block_logits(x[s])
        return logits

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = self.predict_logits(x)
        if self.output == "softmax":
            return softmax(logits, axis=1)
        return sigmoid(logits)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class indices; ties resolve to the lower index."""
        return np.argmax(self.predict_logits(x), axis=1)
