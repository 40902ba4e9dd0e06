"""Feed-forward classifier over fixed-length feature vectors.

Hidden layers use the self-normalizing SELU nonlinearity; the output layer
is linear (probabilities come from the loss-side squashing).  All layers
carry biases.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .activations import selu, selu_grad
from .loss import OUTPUTS, Classifier


def dense_param_count(input_dim: int, hidden: tuple[int, ...], output_dim: int) -> int:
    count = 0
    d = input_dim
    for h in list(hidden) + [output_dim]:
        count += d * h + h
        d = h
    return count


# rows per block of a weight-gradient sum; a fixed block keeps the bytes
# independent of how BLAS would split one long K = batch product
GRAD_ROW_BLOCK = 64


def _blocked_grads(a: np.ndarray, delta: np.ndarray):
    """``(a.T @ delta, delta.sum(axis=0))``, each summed over fixed row
    blocks in row order."""
    gw = np.zeros((a.shape[1], delta.shape[1]))
    gb = np.zeros(delta.shape[1])
    for s in range(0, delta.shape[0], GRAD_ROW_BLOCK):
        gw += a[s : s + GRAD_ROW_BLOCK].T @ delta[s : s + GRAD_ROW_BLOCK]
        gb += delta[s : s + GRAD_ROW_BLOCK].sum(axis=0)
    return gw, gb


class DenseNetwork(Classifier):
    """Fully connected net: input -> hidden (SELU) ... -> linear logits."""

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, ...] = (32, 16, 8),
        output_dim: int = 3,
        output: str = "softmax",
        seed: int = 0,
    ):
        if output not in OUTPUTS:
            raise ConfigurationError(f"output must be one of {OUTPUTS}")
        self.input_dim = input_dim
        self.hidden = tuple(int(h) for h in hidden)
        self.output_dim = output_dim
        self.output = output

        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        d = input_dim
        for h in list(self.hidden) + [output_dim]:
            s = 1.0 / np.sqrt(d)
            self.weights.append(rng.uniform(-s, s, (d, h)))
            self.biases.append(np.zeros(h))
            d = h

    def arch(self) -> dict:
        return {
            "kind": "dense",
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "output_dim": self.output_dim,
            "output": self.output,
        }

    def param_arrays(self) -> list[np.ndarray]:
        """Interleaved weight, bias per layer, input side first."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.extend([W, b])
        return out

    def forward(self, x: np.ndarray):
        """x is (N, input_dim); returns ((N, output_dim) logits, cache)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ConfigurationError(f"expected (N, {self.input_dim}) input, got {x.shape}")
        pre = []
        acts = [x]
        a = x
        n_hidden = len(self.hidden)
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            pre.append(z)
            a = selu(z) if k < n_hidden else z
            acts.append(a)
        return a, (pre, acts)

    def _block_logits(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, dlogits: np.ndarray) -> list[np.ndarray]:
        pre, acts = cache
        n_hidden = len(self.hidden)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dlogits
        for k in range(len(self.weights) - 1, -1, -1):
            if k < n_hidden:
                delta = delta * selu_grad(pre[k])
            grads_w[k], grads_b[k] = _blocked_grads(acts[k], delta)
            if k > 0:
                delta = delta @ self.weights[k].T
        out = []
        for gw, gb in zip(grads_w, grads_b):
            out.extend([gw, gb])
        return out
