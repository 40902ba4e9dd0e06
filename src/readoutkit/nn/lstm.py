"""Batched multi-layer LSTM classifier with exact backpropagation through time.

Shapes follow the (time, batch, feature) convention.  Each layer keeps its
input and recurrent weights in single combined matrices with gate blocks
ordered input, forget, cell, output:

    z = x_t @ Wx + h_{t-1} @ Wh + b            (batch, 4*hidden)
    i, f, o = sigmoid of their blocks;  g = tanh of its block
    c_t = f * c_{t-1} + i * g;  h_t = o * tanh(c_t)

Initial hidden and cell states are zero.  Classification logits are a linear
map of the final hidden state, bias-free by default.

The forward pass evaluates all four gate blocks with one ``tanh`` per step,
written in place into the gate cache.  It relies on the identity that
``activations.sigmoid`` computes, ``sigmoid(z) = 0.5 * (tanh(0.5 * z) + 1)``:
the i, f and o columns of ``Wx``, ``Wh`` and ``b`` are halved once per call,
so ``tanh`` sees ``0.5 * z`` for those blocks, and a per-column offset (1 or
0) and scale (0.5 or 1) then finish the three sigmoids and leave the cell
block as plain ``tanh(z)``.  Halving is a power-of-two scale, so every
product and partial sum comes out exactly half as large and the matmul
rounds identically; the remaining operations run in the same order as
``activations.sigmoid``.  The gates, and so the logits, caches and
gradients, are bit-identical to evaluating each block on its own, except
where a halved value would fall into the subnormal range.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .activations import sigmoid, softmax


def lstm_param_count(
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    output_bias: bool = False,
) -> int:
    """Trainable parameter count of the network described."""
    count = 0
    d = input_dim
    for h in hidden:
        count += 4 * (h * (d + h) + h)
        d = h
    count += d * output_dim + (output_dim if output_bias else 0)
    return count


class _Layer:
    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        sx = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden_dim)
        self.Wx = rng.uniform(-sx, sx, (input_dim, 4 * hidden_dim))
        self.Wh = rng.uniform(-sh, sh, (hidden_dim, 4 * hidden_dim))
        self.b = np.zeros(4 * hidden_dim)
        self.b[hidden_dim : 2 * hidden_dim] = 1.0

    def forward(self, x: np.ndarray):
        T, N, _ = x.shape
        h = self.hidden_dim
        # one tanh covers all four gate blocks; the module docstring says why
        # the result is exact
        scale = np.full(4 * h, 0.5)
        scale[2 * h : 3 * h] = 1.0
        offset = np.ones(4 * h)
        offset[2 * h : 3 * h] = 0.0
        Wh = self.Wh * scale
        # input projections for every timestep in one matmul; each step's
        # gates are then computed in place over its own slice
        gates = (x.reshape(T * N, -1) @ (self.Wx * scale)).reshape(T, N, 4 * h)
        gates += self.b * scale
        cs = np.empty((T, N, h))
        tanh_cs = np.empty((T, N, h))
        hs = np.empty((T, N, h))
        z = np.empty((N, 4 * h))
        ig = np.empty((N, h))
        h_t = c_t = np.zeros((N, h))
        for t in range(T):
            g = gates[t]
            np.matmul(h_t, Wh, out=z)
            g += z
            np.tanh(g, out=g)
            g += offset
            g *= scale
            c_t = np.multiply(g[:, h : 2 * h], c_t, out=cs[t])
            c_t += np.multiply(g[:, :h], g[:, 2 * h : 3 * h], out=ig)
            h_t = np.multiply(g[:, 3 * h :], np.tanh(c_t, out=tanh_cs[t]), out=hs[t])
        cache = (x, gates, cs, tanh_cs, hs)
        return hs, cache

    def backward(self, cache, dh_seq: np.ndarray, input_grad: bool = True):
        """``(dx, (dWx, dWh, db))``; ``dx`` is ``None`` unless ``input_grad``."""
        x, gates, cs, tanh_cs, hs = cache
        T, N, _ = x.shape
        h = self.hidden_dim
        # sequential pass computes per-step gate deltas; the weight gradients
        # are then single flattened matmuls over all timesteps
        dzs = np.empty((T, N, 4 * h))
        dh_rec = np.zeros((N, h))
        dc = np.zeros((N, h))
        for t in range(T - 1, -1, -1):
            gi = gates[t, :, :h]
            gf = gates[t, :, h : 2 * h]
            gg = gates[t, :, 2 * h : 3 * h]
            go = gates[t, :, 3 * h :]
            tc = tanh_cs[t]
            c_prev = cs[t - 1] if t > 0 else 0.0

            dh = dh_seq[t] + dh_rec
            dc = dc + dh * go * (1.0 - tc * tc)
            dz = dzs[t]
            dz[:, :h] = (dc * gg) * gi * (1.0 - gi)
            dz[:, h : 2 * h] = (dc * c_prev) * gf * (1.0 - gf)
            dz[:, 2 * h : 3 * h] = (dc * gi) * (1.0 - gg * gg)
            dz[:, 3 * h :] = (dh * tc) * go * (1.0 - go)
            dc = dc * gf
            dh_rec = dz @ self.Wh.T

        dz_flat = dzs.reshape(T * N, 4 * h)
        dWx = x.reshape(T * N, -1).T @ dz_flat
        dWh = hs[:-1].reshape((T - 1) * N, h).T @ dzs[1:].reshape((T - 1) * N, 4 * h)
        db = dz_flat.sum(axis=0)
        dx = (dz_flat @ self.Wx.T).reshape(x.shape) if input_grad else None
        return dx, (dWx, dWh, db)


class LstmNetwork:
    """Stacked LSTM layers plus a linear readout of the final hidden state."""

    batch_axis = 1

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, ...] = (16,),
        output_dim: int = 3,
        output_bias: bool = False,
        output: str = "softmax",
        seed: int = 0,
    ):
        if not hidden:
            raise ConfigurationError("need at least one recurrent layer")
        if output not in ("softmax", "sigmoid"):
            raise ConfigurationError("output must be 'softmax' or 'sigmoid'")
        self.input_dim = input_dim
        self.hidden = tuple(int(h) for h in hidden)
        self.output_dim = output_dim
        self.output_bias = output_bias
        self.output = output

        rng = np.random.default_rng(seed)
        self.layers = []
        d = input_dim
        for h in self.hidden:
            self.layers.append(_Layer(d, h, rng))
            d = h
        so = 1.0 / np.sqrt(d)
        self.W_out = rng.uniform(-so, so, (d, output_dim))
        self.b_out = np.zeros(output_dim) if output_bias else None

    def arch(self) -> dict:
        return {
            "kind": "lstm",
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "output_dim": self.output_dim,
            "output_bias": self.output_bias,
            "output": self.output,
        }

    @classmethod
    def from_arch(cls, arch: dict, seed: int = 0) -> "LstmNetwork":
        return cls(
            input_dim=arch["input_dim"],
            hidden=tuple(arch["hidden"]),
            output_dim=arch["output_dim"],
            output_bias=arch.get("output_bias", False),
            output=arch.get("output", "softmax"),
            seed=seed,
        )

    def param_arrays(self) -> list[np.ndarray]:
        """Parameter tensors in a fixed declaration order: per layer Wx, Wh,
        b, then the readout weight and optional bias.  Serialization, the
        optimizer, and gradients all follow this order."""
        out = []
        for layer in self.layers:
            out.extend([layer.Wx, layer.Wh, layer.b])
        out.append(self.W_out)
        if self.b_out is not None:
            out.append(self.b_out)
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.param_arrays())

    def forward(self, x: np.ndarray):
        """x is (T, N, input_dim); returns ((N, output_dim) logits, cache)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ConfigurationError(
                f"expected (T, N, {self.input_dim}) input, got {x.shape}"
            )
        caches = []
        seq = x
        for layer in self.layers:
            seq, cache = layer.forward(seq)
            caches.append(cache)
        h_final = seq[-1]
        logits = h_final @ self.W_out
        if self.b_out is not None:
            logits = logits + self.b_out
        return logits, (caches, h_final, x.shape)

    def backward(self, cache, dlogits: np.ndarray) -> list[np.ndarray]:
        """Gradients aligned with :meth:`param_arrays`."""
        caches, h_final, x_shape = cache
        T, N, _ = x_shape
        dW_out = h_final.T @ dlogits
        db_out = dlogits.sum(axis=0) if self.b_out is not None else None

        dh_seq = np.zeros((T, N, self.hidden[-1]))
        dh_seq[-1] = dlogits @ self.W_out.T
        layer_grads = []
        for i in reversed(range(len(self.layers))):
            # the bottom layer's input gradient would be the data's: unused
            dh_seq, grads = self.layers[i].backward(caches[i], dh_seq, input_grad=i > 0)
            layer_grads.append(grads)
        layer_grads.reverse()

        out = []
        for dWx, dWh, db in layer_grads:
            out.extend([dWx, dWh, db])
        out.append(dW_out)
        if db_out is not None:
            out.append(db_out)
        return out

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(x)
        return logits

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = self.predict_logits(x)
        if self.output == "softmax":
            return softmax(logits, axis=1)
        return sigmoid(logits)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class indices; ties resolve to the lower index."""
        return np.argmax(self.predict_logits(x), axis=1)
