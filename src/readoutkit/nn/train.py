"""Mini-batch training loop shared by the recurrent and dense classifiers."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigurationError, NumericalError
from .loss import weighted_cross_entropy
from .optim import Adam, TrainConfig, lr_at


def train(
    model,
    X: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    config: TrainConfig = TrainConfig(),
    log_fn: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Fit ``model`` in place; returns one history record per epoch.

    The epoch loss is the weight-averaged cross-entropy over the whole
    epoch.  A non-finite batch loss aborts training with the offending
    global batch index attached.
    """
    labels = np.asarray(labels, dtype=int)
    n = labels.shape[0]
    if len(X) != n:
        raise ConfigurationError("sample count mismatch between inputs and labels")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ConfigurationError("weights must be one value per sample")

    optimizer = Adam(model.param_arrays())
    history = []
    batch_counter = 0
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        if config.shuffle:
            order = np.random.default_rng([config.seed, epoch]).permutation(n)
        else:
            order = np.arange(n)

        loss_sum = 0.0
        weight_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = X[idx]
            yb = labels[idx]
            wb = weights[idx]

            logits, cache = model.forward(xb)
            loss, dlogits = weighted_cross_entropy(logits, yb, wb, output=model.output)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}", batch_index=batch_counter
                )
            grads = model.backward(cache, dlogits)
            optimizer.step(grads, lr)

            bw = float(np.sum(wb))
            loss_sum += loss * bw
            weight_sum += bw
            batch_counter += 1

        record = {
            "epoch": epoch,
            "loss": loss_sum / weight_sum if weight_sum > 0 else 0.0,
            "lr": lr,
        }
        history.append(record)
        if log_fn is not None:
            log_fn(record)
    return history
