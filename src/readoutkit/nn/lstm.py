"""Batched multi-layer LSTM classifier with exact backpropagation through time.

The network takes (shot, time, feature) input, shots on axis 0 like every
array of shots in the package.  Each layer keeps its weights in one
stacked block ``W = [Wh; Wx; b]`` of shape (hidden + input + 1,
4*hidden), with gate blocks ordered input, forget, cell, output; ``Wh``,
``Wx`` and ``b`` are views of it:

    z = x_t @ Wx + h_{t-1} @ Wh + b            (batch, 4*hidden)
    i, f, o = sigmoid of their blocks;  g = tanh of its block
    c_t = f * c_{t-1} + i * g;  h_t = o * tanh(c_t)

Initial hidden and cell states are zero.  Classification logits are a linear
map of the final hidden state, bias-free by default.

Inside the network the layers run gate-major, with the batch on the last
axis: ``_run`` hands the first layer a (T, D, N) view of the input.  A
layer writes its input into a (T + 1, hidden + D + 1, N) operand buffer
whose slot t holds ``[h_{t-1}; x_t; 1]``, and each step's gates are
one product ``z = W.T @ ops[t]`` written straight into the (T, 4*hidden, N)
gate cache: each gate is one dot product over the stacked rows, the bias
included, with no separate input projection or bias pass.  ``h_t`` is
written into slot t + 1, so the layer's states are views of the buffer.
Each gate block is one contiguous (hidden, N) slab, so the per-step
elementwise work, forward and backward, runs on contiguous memory, written
in place into preallocated buffers; the backward keeps the per-gate
formulas' operation order.

One step loop serves two buffer layouts.  ``forward``, which training and
``gradient_check`` call, writes each step into the (T, ...) gate, cell and
tanh(cell) caches that ``backward`` reads.  Prediction (``predict_logits``,
through ``_block_logits``) keeps no caches: every step reuses one (4*hidden,
N) gate buffer, whose four block views are taken once, one cell buffer
updated in place (``c = f * c``, then ``c += i * g``) and one tanh(cell)
buffer.  The operations and their order are the same, so the logits are
the same bytes.  A 256-shot block then holds its operand buffer (about
2 MiB at 50 steps and 16 hidden units) instead of about 12 MiB of caches,
and a 50-step layer measured 13-15% faster at 256 shots and 18-24% at one
shot (two shared vCPUs, one BLAS thread).

The forward pass evaluates all four gate blocks with one ``tanh`` per step,
written in place into the gate cache.  It relies on the identity that
``activations.sigmoid`` computes, ``sigmoid(z) = 0.5 * (tanh(0.5 * z) + 1)``:
the i, f and o columns of ``W`` are halved once per call, so ``tanh`` sees
``0.5 * z`` for those blocks, and a per-row offset (1 or 0) and scale (0.5
or 1) then finish the three sigmoids and leave the cell block as plain
``tanh(z)``.  Halving is a power-of-two scale: every product and partial
sum of the dot product, the bias term included, comes out exactly half as
large, and the matmul rounds identically; the remaining operations run in
the same order as ``activations.sigmoid``.  The gates, and so the logits,
caches and gradients, are bit-identical to evaluating each block on its own
from the same stacked product, except where a halved value would fall into
the subnormal range.

Every product over the batch runs over fixed column blocks of
``loss.BATCH_BLOCK`` shots, in block order: the gate products, the recurrent and
input gradients, the readout, and the weight gradients.  Per step the
backward adds ``ops[t, :hidden] @ dz_t.T`` to ``dWh`` and one product over
the rows ``[x_t; 1]`` to ``dWx`` and ``db`` together, block by block, from
the last step to the first.  A BLAS library may split a product's inner
dimension or its columns differently at each thread count, and a split can
change the summation order or the kernel that computes some elements; that
rounds differently, so a product over the whole batch, even one whose
inner dimension is a single batch, would make the trained bytes depend on
the thread count.  A fixed block, summed in a fixed order, keeps them equal
(``tests/test_thread_invariance.py`` checks batches up to six blocks).

The forward selects its gate product by the batch width it is given.  A
one-shot forward (every ``predict_one``) takes each step's product by
``np.dot``, any wider one by ``np.matmul`` over the column blocks.  On one
column the two give the same bytes (``tests/test_predict_blocks.py``
checks hidden widths 1 to 1024, input widths 1 to 64 and both dtypes),
and ``np.dot`` costs about half the call overhead of the ``matmul``
gufunc, which is most of a one-shot step; on a 256-shot float32 training
block ``np.dot`` measured about 10% slower, so wider forwards keep
``np.matmul``.  For the same reason the step's ufuncs are called through
local names with positional outputs.

Compute dtype and master dtype: the network computes in its input's dtype,
float32 or float64 (any other input is cast to float64), while the
parameters stay float64 master arrays, which ``Adam`` steps and ``.rkm``
files store.  A forward pass casts the halved block, and the readout
weights, once per call; a backward pass casts ``Wh``, ``Wx`` and the
readout weights once per call and adds each step's and block's weight
gradient product, computed in the narrow dtype, into a float64
accumulator, so the gradients are float64 either way.  Training on float32
input is mixed-precision training in the sense of Micikevicius et al.
(ICLR 2018): at 16 hidden units the cost is the per-step ``tanh`` and
small products, both faster in float32.  The pipelines train their lstm
models on float32 input; prediction casts its input to float64, so
predictions, margins and a loaded model's outputs do not depend on how
the model was trained.  The halving argument above holds in float32 too,
and float32 results are bit-identical to the per-gate form in float32.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import ConfigurationError
from .loss import OUTPUTS, Classifier, batch_blocks


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
        h, d = hidden_dim, input_dim
        sx = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden_dim)
        # one block W = [Wh; Wx; b]; the named parameters are views of it
        self.W = np.empty((h + d + 1, 4 * h))
        self.Wh, self.Wx, self.b = self.W[:h], self.W[h : h + d], self.W[h + d]
        self.Wx[...] = rng.uniform(-sx, sx, (d, 4 * h))
        self.Wh[...] = rng.uniform(-sh, sh, (h, 4 * h))
        self.b[...] = 0.0
        self.b[h : 2 * h] = 1.0

    def forward(self, x: np.ndarray, keep: bool):
        """x is (T, input_dim, N), float32 or float64; returns the
        (T, hidden, N) states and, with ``keep``, the cache ``backward``
        reads (``None`` without), computed in x's dtype."""
        T, D, N = x.shape
        h = self.hidden_dim
        dt = x.dtype
        # one tanh covers all four gate blocks; the module docstring says why
        # the result is exact; the halved weights are cast to x's dtype
        scale = np.full(4 * h, 0.5, dtype=dt)
        scale[2 * h : 3 * h] = 1.0
        WT = np.ascontiguousarray((self.W * scale).T, dtype=dt)
        # step t's operand [h_{t-1}; x_t; 1] is ops[t]; h_t goes to ops[t + 1]
        ops = np.empty((T + 1, h + D + 1, N), dtype=dt)
        ops[0, :h] = 0.0
        ops[:T, h : h + D] = x
        ops[:T, h + D] = 1.0
        ops[T, h:] = 0.0
        # the step buffers: training keeps a slot per step for the backward,
        # its views made as the loop reaches it (a list of them all measured
        # 3% slower); prediction reuses one slot, whose views are taken once
        slots = T if keep else 1
        gates = np.empty((slots, 4 * h, N), dtype=dt)
        cs = np.empty((slots, h, N), dtype=dt)
        tanh_cs = np.empty((slots, h, N), dtype=dt)
        steps = (
            (g, g[:h], g[h : 2 * h], g[2 * h : 3 * h], g[3 * h :], c, tc)
            for g, c, tc in zip(gates, cs, tanh_cs)
        )
        if not keep:
            steps = itertools.repeat(next(steps), T)
        ig = np.empty((h, N), dtype=dt)
        c_prev = np.zeros((h, N), dtype=dt)
        # the sigmoid finish as full-size operands, one contiguous pass each
        offset = np.repeat((scale != 1.0)[:, None], N, axis=1).astype(dt)
        scale = np.repeat(scale[:, None], N, axis=1)
        blocks = batch_blocks(N)
        # np.dot for one shot: matmul's bytes at half the call cost (see above)
        dot, matmul, tanh, add, multiply = np.dot, np.matmul, np.tanh, np.add, np.multiply
        for t, (g, gi, gf, gg, go, c, tc) in enumerate(steps):
            if N == 1:
                dot(WT, ops[t], g)
            else:
                for s in blocks:
                    matmul(WT, ops[t, :, s], g[:, s])
            tanh(g, g)
            add(g, offset, g)
            multiply(g, scale, g)
            # in the prediction layout c is c_prev: the update runs in place
            multiply(gf, c_prev, c)
            add(c, multiply(gi, gg, ig), c)
            multiply(go, tanh(c, tc), ops[t + 1, :h])
            c_prev = c
        return ops[1:, :h], ((ops, gates, cs, tanh_cs) if keep else None)

    def backward(self, cache, dh_seq: np.ndarray, input_grad: bool = True):
        """``(dx, (dWx, dWh, db))`` for the (T, hidden, N) state gradients
        ``dh_seq``; ``dx`` is ``None`` unless ``input_grad``.  Computes in
        the cache's dtype; the weight gradients are float64."""
        ops, gates, cs, tanh_cs = cache
        T, _, N = gates.shape
        h = self.hidden_dim
        D = self.input_dim
        dt = gates.dtype
        Wh = self.Wh.astype(dt, copy=False)
        Wx = self.Wx.astype(dt, copy=False)
        # float64 accumulators of the per-step, per-block products
        dWh = np.zeros((h, 4 * h))
        dWxb = np.zeros((D + 1, 4 * h))
        dWh_t = np.empty_like(dWh, dtype=dt)
        dWxb_t = np.empty_like(dWxb, dtype=dt)
        dx = np.empty((T, D, N), dtype=dt) if input_grad else None
        dz = np.empty((4 * h, N), dtype=dt)
        dzi, dzf, dzg, dzo = dz[:h], dz[h : 2 * h], dz[2 * h : 3 * h], dz[3 * h :]
        dh_rec = np.zeros((h, N), dtype=dt)
        dh = np.empty((h, N), dtype=dt)
        dc = np.zeros((h, N), dtype=dt)
        one_minus = np.empty((4 * h, N), dtype=dt)
        a = np.empty((h, N), dtype=dt)
        zero = np.zeros((h, N), dtype=dt)
        blocks = batch_blocks(N)
        for t in range(T - 1, -1, -1):
            g = gates[t]
            gi, gf, gg, go = g[:h], g[h : 2 * h], g[2 * h : 3 * h], g[3 * h :]
            tc = tanh_cs[t]
            c_prev = cs[t - 1] if t > 0 else zero
            np.subtract(1.0, g, out=one_minus)

            # the same operations, in the same order, as the per-gate formulas
            # dc += (dh * go) * (1 - tc * tc)
            np.add(dh_seq[t], dh_rec, out=dh)
            np.multiply(tc, tc, out=a)
            np.subtract(1.0, a, out=a)
            a *= np.multiply(dh, go, out=dzo)
            dc += a
            # dz_i = ((dc * gg) * gi) * (1 - gi)
            np.multiply(dc, gg, out=dzi)
            dzi *= gi
            dzi *= one_minus[:h]
            # dz_f = ((dc * c_prev) * gf) * (1 - gf)
            np.multiply(dc, c_prev, out=dzf)
            dzf *= gf
            dzf *= one_minus[h : 2 * h]
            # dz_g = (dc * gi) * (1 - gg * gg)
            np.multiply(gg, gg, out=a)
            np.subtract(1.0, a, out=a)
            np.multiply(dc, gi, out=dzg)
            dzg *= a
            # dz_o = ((dh * tc) * go) * (1 - go)
            np.multiply(dh, tc, out=dzo)
            dzo *= go
            dzo *= one_minus[3 * h :]
            dc *= gf

            # per column block: the recurrent and input gradients, and the
            # weight gradients from the operand rows, summed in t then block
            # order; dWh skips t = 0, whose h_{-1} is zero; the row of ones
            # gives db alongside dWx
            op = ops[t]
            for s in blocks:
                dz_s = dz[:, s]
                np.matmul(Wh, dz_s, out=dh_rec[:, s])
                if t > 0:
                    dWh += np.matmul(op[:h, s], dz_s.T, out=dWh_t)
                dWxb += np.matmul(op[h:, s], dz_s.T, out=dWxb_t)
                if input_grad:
                    np.matmul(Wx, dz_s, out=dx[t, :, s])
        return dx, (dWxb[:D], dWh, dWxb[D])


class LstmNetwork(Classifier):
    """Stacked LSTM layers plus a linear readout of the final hidden state."""

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
        if output not in OUTPUTS:
            raise ConfigurationError(f"output must be one of {OUTPUTS}")
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

    def param_arrays(self) -> list[np.ndarray]:
        """Parameter tensors in a fixed declaration order: per layer Wx, Wh,
        b, then the readout weight and optional bias.  Serialization, the
        optimizer, and gradients all follow this order.  A layer's Wx, Wh
        and b are views of its stacked block, so they must be updated in
        place, as the optimizer and ``load_model`` do."""
        out = []
        for layer in self.layers:
            out.extend([layer.Wx, layer.Wh, layer.b])
        out.append(self.W_out)
        if self.b_out is not None:
            out.append(self.b_out)
        return out

    def forward(self, x: np.ndarray):
        """x is (N, T, input_dim) with T >= 1; returns ((N, output_dim)
        logits, cache), computed in float32 for float32 input and in
        float64 otherwise."""
        return self._run(x, keep=True)

    def _block_logits(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s logits, from the layers' prediction layout."""
        return self._run(x, keep=False)[0]

    def _run(self, x: np.ndarray, keep: bool):
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] == 0 or x.shape[2] != self.input_dim:
            raise ConfigurationError(
                f"expected (N, T, {self.input_dim}) input with T >= 1, got {x.shape}"
            )
        caches = []
        # a (T, D, N) view: the layers run batch-last
        seq = x.transpose(1, 2, 0)
        for layer in self.layers:
            seq, cache = layer.forward(seq, keep)
            caches.append(cache)
        h_final = seq[-1]
        W_out = self.W_out.astype(x.dtype, copy=False)
        logits = np.empty((len(x), self.output_dim), dtype=x.dtype)
        for s in batch_blocks(len(x)):
            # compact, like a forward of this block alone: a strided 1-shot column rounds otherwise
            np.matmul(np.ascontiguousarray(h_final[:, s]).T, W_out, out=logits[s])
        if self.b_out is not None:
            logits += self.b_out.astype(x.dtype, copy=False)
        return logits, (caches, h_final, x.shape)

    def backward(self, cache, dlogits: np.ndarray) -> list[np.ndarray]:
        """Gradients aligned with :meth:`param_arrays`, all float64; the
        products run in the dtype of the forward pass that made ``cache``."""
        caches, h_final, x_shape = cache
        N, T, _ = x_shape
        dt = h_final.dtype
        W_out = self.W_out.astype(dt, copy=False)
        dl = dlogits.astype(dt, copy=False)
        dW_out = np.zeros_like(self.W_out)
        dh_seq = np.zeros((T, self.hidden[-1], N), dtype=dt)
        for s in batch_blocks(N):
            dW_out += h_final[:, s] @ dl[s]
            np.matmul(W_out, dl[s].T, out=dh_seq[-1, :, s])
        db_out = dlogits.sum(axis=0) if self.b_out is not None else None

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
