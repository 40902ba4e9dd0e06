"""Activation functions and their derivatives, numerically stable forms."""

from __future__ import annotations

import numpy as np

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function via its tanh identity, which saturates cleanly at
    both ends instead of overflowing exp."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable softmax (max subtracted before exponentiation)."""
    z = np.asarray(z, dtype=float)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def selu(z: np.ndarray) -> np.ndarray:
    """Self-normalizing linear unit."""
    z = np.asarray(z, dtype=float)
    return SELU_LAMBDA * np.where(z > 0, z, SELU_ALPHA * (np.exp(np.minimum(z, 0.0)) - 1.0))


def selu_grad(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return SELU_LAMBDA * np.where(z > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(z, 0.0)))
