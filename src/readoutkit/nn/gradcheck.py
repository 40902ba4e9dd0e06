"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from .loss import weighted_cross_entropy


def gradient_check(
    model,
    X: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    n_checks: int = 100,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic and numeric gradients.

    ``n_checks`` scalar parameters are sampled (with replacement) across all
    parameter tensors; each is perturbed by ``+-eps`` and the loss difference
    compared against the backprop gradient.  The relative error uses the
    symmetric normalization |a - n| / max(|a| + |n|, 1e-8).  The default
    step balances truncation against float64 roundoff in the loss, so ``X``
    is cast to float64: the check always runs the float64 path, never
    central differences of float32 arithmetic.
    """
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    params = model.param_arrays()

    logits, cache = model.forward(X)
    _, dlogits = weighted_cross_entropy(logits, labels, weights, output=model.output)
    grads = model.backward(cache, dlogits)

    sizes = np.array([p.size for p in params])
    total = int(sizes.sum())
    worst = 0.0
    for _ in range(n_checks):
        flat_index = int(rng.integers(total))
        k = int(np.searchsorted(np.cumsum(sizes), flat_index, side="right"))
        local = flat_index - int(np.sum(sizes[:k]))
        p = params[k].reshape(-1)

        orig = p[local]
        p[local] = orig + eps
        lp, _ = weighted_cross_entropy(
            model.forward(X)[0], labels, weights, output=model.output
        )
        p[local] = orig - eps
        lm, _ = weighted_cross_entropy(
            model.forward(X)[0], labels, weights, output=model.output
        )
        p[local] = orig

        numeric = (lp - lm) / (2.0 * eps)
        analytic = grads[k].reshape(-1)[local]
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
