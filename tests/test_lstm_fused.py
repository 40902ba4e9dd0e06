"""The gate-major LSTM against two test-local references.

The per-gate reference is the straightforward form of the recurrence in the
same gate-major layout as the model: each step's gates are one product of
the stacked ``[Wh; Wx; b]`` block with the operand ``[h_{t-1}; x_t; 1]``
over the same column blocks, and each gate block then gets its own
``sigmoid`` or ``tanh`` and is stored into the cache.  The fused forward
must reproduce its logits, every cache array, and every gradient exactly,
not merely to a tolerance, in float64 and in float32.

Float32 and float64 input on the same weights must agree to a stated
bound, and a float32 training step must keep float32 caches and float64
gradients and parameters.

The row-major reference is the layer as it was before the gate-major
layout: states ``(T, N, h)``, gates ``(T, N, 4h)``, and weight gradients as
single products over all ``T * N`` rows.  It rounds differently, so the
model must agree with it to a relative ``1e-12`` (largest deviation over
the largest reference magnitude, per array), not bit for bit.
"""

import numpy as np
import pytest

from readoutkit.nn.activations import sigmoid
from readoutkit.nn.loss import batch_blocks, weighted_cross_entropy
from readoutkit.nn.lstm import LstmNetwork
from readoutkit.nn.optim import Adam
from readoutkit.nn.serialize import load_model, save_model


def _sigmoid(z):
    """``activations.sigmoid``'s formula in z's own dtype (the library
    function computes in float64)."""
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def test_local_sigmoid_is_the_library_sigmoid_in_float64():
    z = np.random.default_rng(0).normal(0.0, 4.0, 1000)
    assert np.array_equal(_sigmoid(z), sigmoid(z))
    assert _sigmoid(z.astype(np.float32)).dtype == np.float32


def _reference_layer_forward(layer, x):
    T, D, N = x.shape
    h = layer.hidden_dim
    dt = x.dtype
    ops = np.zeros((T + 1, h + D + 1, N), dtype=dt)
    ops[:T, h : h + D] = x
    ops[:T, h + D] = 1.0
    gates = np.empty((T, 4 * h, N), dtype=dt)
    cs = np.empty((T, h, N), dtype=dt)
    tanh_cs = np.empty((T, h, N), dtype=dt)
    c_t = np.zeros((h, N), dtype=dt)
    WT = np.ascontiguousarray(layer.W.T, dtype=dt)
    for t in range(T):
        z = np.empty((4 * h, N), dtype=dt)
        for s in batch_blocks(N):
            z[:, s] = WT @ ops[t, :, s]
        zi, zf, zg, zo = z[:h], z[h : 2 * h], z[2 * h : 3 * h], z[3 * h :]
        gi, gf, go = _sigmoid(zi), _sigmoid(zf), _sigmoid(zo)
        gg = np.tanh(zg)
        c_t = gf * c_t + gi * gg
        tc = np.tanh(c_t)
        gates[t, :h] = gi
        gates[t, h : 2 * h] = gf
        gates[t, 2 * h : 3 * h] = gg
        gates[t, 3 * h :] = go
        cs[t] = c_t
        tanh_cs[t] = tc
        ops[t + 1, :h] = go * tc
    return ops[1:, :h], (ops, gates, cs, tanh_cs)


def _reference_forward(model, x):
    caches = []
    seq = x.transpose(1, 2, 0)
    for layer in model.layers:
        seq, cache = _reference_layer_forward(layer, seq)
        caches.append(cache)
    h_final = seq[-1]
    logits = np.empty((len(x), model.output_dim), dtype=x.dtype)
    for s in batch_blocks(len(x)):
        logits[s] = h_final[:, s].T @ model.W_out.astype(x.dtype)
    if model.b_out is not None:
        logits = logits + model.b_out.astype(x.dtype)
    return logits, (caches, h_final, x.shape)


def _row_major_layer_forward(layer, x):
    """(T, N, D) input; the fused step in the old row-major layout."""
    T, N, _ = x.shape
    h = layer.hidden_dim
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    offset = np.ones(4 * h)
    offset[2 * h : 3 * h] = 0.0
    Wh = layer.Wh * scale
    gates = (x.reshape(T * N, -1) @ (layer.Wx * scale)).reshape(T, N, 4 * h)
    gates += layer.b * scale
    cs = np.empty((T, N, h))
    tanh_cs = np.empty((T, N, h))
    hs = np.empty((T, N, h))
    h_t = c_t = np.zeros((N, h))
    for t in range(T):
        g = gates[t]
        g += h_t @ Wh
        np.tanh(g, out=g)
        g += offset
        g *= scale
        c_t = np.multiply(g[:, h : 2 * h], c_t, out=cs[t])
        c_t += g[:, :h] * g[:, 2 * h : 3 * h]
        h_t = np.multiply(g[:, 3 * h :], np.tanh(c_t, out=tanh_cs[t]), out=hs[t])
    return hs, (x, gates, cs, tanh_cs, hs)


def _row_major_layer_backward(layer, cache, dh_seq):
    """``(dx, (dWx, dWh, db))`` with the flat ``K = T * N`` products."""
    x, gates, cs, tanh_cs, hs = cache
    T, N, _ = x.shape
    h = layer.hidden_dim
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
        dh_rec = dz @ layer.Wh.T
    dz_flat = dzs.reshape(T * N, 4 * h)
    dWx = x.reshape(T * N, -1).T @ dz_flat
    dWh = hs[:-1].reshape((T - 1) * N, h).T @ dzs[1:].reshape((T - 1) * N, 4 * h)
    db = dz_flat.sum(axis=0)
    dx = (dz_flat @ layer.Wx.T).reshape(x.shape)
    return dx, (dWx, dWh, db)


def _row_major_forward_backward(model, x, labels):
    """Logits and the parameter gradients."""
    caches = []
    seq = x
    for layer in model.layers:
        seq, cache = _row_major_layer_forward(layer, seq)
        caches.append(cache)
    h_final = seq[-1]
    logits = h_final @ model.W_out
    if model.b_out is not None:
        logits = logits + model.b_out
    _, dlogits = weighted_cross_entropy(logits, labels, np.ones(len(labels)), output=model.output)
    dh_seq = np.zeros(seq.shape)
    dh_seq[-1] = dlogits @ model.W_out.T
    layer_grads = []
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        dh_seq, grads = _row_major_layer_backward(layer, cache, dh_seq)
        layer_grads.append(grads)
    grads = [g for lg in reversed(layer_grads) for g in lg]
    grads.append(h_final.T @ dlogits)
    if model.b_out is not None:
        grads.append(dlogits.sum(axis=0))
    return logits, grads


def _trained_looking_model(hidden, output, seed):
    """A network whose biases and weights are off their init values, so every
    gate block sees a spread of pre-activations."""
    model = LstmNetwork(input_dim=2, hidden=hidden, output_dim=3, output_bias=True,
                        output=output, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for p in model.param_arrays():
        p += rng.normal(0.0, 0.5, p.shape)
    return model


def _assert_fused_matches_per_gate(n, hidden, output, dtype):
    model = _trained_looking_model(hidden, output, seed=n)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 2.0, (50, n, 2)).astype(dtype).transpose(1, 0, 2)
    labels = rng.integers(0, 3, n)

    logits, cache = model.forward(x)
    ref_logits, ref_cache = _reference_forward(model, x)
    assert logits.dtype == ref_logits.dtype == dtype
    assert np.array_equal(logits, ref_logits)

    caches, h_final, shape = cache
    ref_caches, ref_h_final, ref_shape = ref_cache
    assert shape == ref_shape == x.shape
    assert np.array_equal(h_final, ref_h_final)
    assert len(caches) == len(ref_caches) == len(hidden)
    for layer_cache, ref_layer_cache in zip(caches, ref_caches):
        for arr, ref_arr in zip(layer_cache, ref_layer_cache, strict=True):
            assert arr.shape == ref_arr.shape
            assert arr.dtype == ref_arr.dtype == dtype
            assert np.array_equal(arr, ref_arr)

    _, dlogits = weighted_cross_entropy(logits, labels, np.ones(n), output=output)
    grads = model.backward(cache, dlogits)
    ref_grads = model.backward(ref_cache, dlogits)
    assert len(grads) == len(model.param_arrays())
    for g, ref_g in zip(grads, ref_grads, strict=True):
        assert np.array_equal(g, ref_g)


@pytest.mark.parametrize("n", [1, 7, 132, 256, 900])
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("output", ["softmax", "sigmoid"])
def test_fused_forward_and_gradients_are_bit_identical(n, hidden, output):
    _assert_fused_matches_per_gate(n, hidden, output, np.float64)


@pytest.mark.parametrize("n", [1, 7, 132, 256, 900])
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("output", ["softmax", "sigmoid"])
def test_fused_forward_and_gradients_are_bit_identical_in_float32(n, hidden, output):
    # halving by a power of two is exact in float32 too
    _assert_fused_matches_per_gate(n, hidden, output, np.float32)


# worst deviation of a float32 forward and backward from float64 on the
# same weights and input, as a fraction of the float64 tensor's norm,
# measured at 7.3e-7 (about 6 float32 epsilons) over the cases below
FLOAT32_AGREEMENT = 2e-6


@pytest.mark.parametrize("n", [1, 7, 132, 256, 900])
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("output", ["softmax", "sigmoid"])
def test_float32_agrees_with_float64_on_the_same_weights(n, hidden, output):
    model = _trained_looking_model(hidden, output, seed=n)
    rng = np.random.default_rng(n)
    # float32 values, so the two runs differ only in their arithmetic
    x = rng.normal(0.0, 2.0, (50, n, 2)).astype(np.float32).transpose(1, 0, 2)
    labels = rng.integers(0, 3, n)
    results = []
    for xx in (x, x.astype(np.float64)):
        logits, cache = model.forward(xx)
        _, dlogits = weighted_cross_entropy(logits, labels, output=output)
        results.append([logits] + model.backward(cache, dlogits))
    for a, ref in zip(*results, strict=True):
        assert a.shape == ref.shape
        assert np.linalg.norm(a - ref) <= FLOAT32_AGREEMENT * np.linalg.norm(ref)


def test_float32_training_step_keeps_float64_gradients_and_parameters():
    model = _trained_looking_model((16, 8), "softmax", seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(0.0, 2.0, (20, 300, 2)).astype(np.float32).transpose(1, 0, 2)
    logits, cache = model.forward(x)
    assert logits.dtype == np.float32
    caches, h_final, _ = cache
    for arr in [h_final] + [a for layer_cache in caches for a in layer_cache]:
        assert arr.dtype == np.float32
    _, dlogits = weighted_cross_entropy(logits, rng.integers(0, 3, 300), output="softmax")
    grads = model.backward(cache, dlogits)
    Adam(model.param_arrays()).step(grads, 1e-2)
    assert all(g.dtype == np.float64 for g in grads)
    assert all(p.dtype == np.float64 for p in model.param_arrays())
    assert all(layer.W.dtype == np.float64 for layer in model.layers)
    # prediction casts to float64 whatever the input's dtype
    assert np.array_equal(model.predict_logits(x), model.predict_logits(x.astype(np.float64)))
    assert model.predict_logits(x).dtype == np.float64


def _rel_dev(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 7, 132, 256, 900])
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("output", ["softmax", "sigmoid"])
def test_gate_major_agrees_with_row_major_layout(n, hidden, output):
    model = _trained_looking_model(hidden, output, seed=n)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 2.0, (50, n, 2))
    labels = rng.integers(0, 3, n)
    ref_logits, ref_grads = _row_major_forward_backward(model, x, labels)

    logits, cache = model.forward(x.transpose(1, 0, 2))
    assert _rel_dev(logits, ref_logits) <= 1e-12
    _, dlogits = weighted_cross_entropy(logits, labels, np.ones(n), output=output)
    grads = model.backward(cache, dlogits)
    for g, ref_g in zip(grads, ref_grads, strict=True):
        assert g.shape == ref_g.shape
        assert _rel_dev(g, ref_g) <= 1e-12

    # every layer's input gradient, from a random state gradient at each step
    caches = cache[0]
    for i, layer in enumerate(model.layers):
        dh_seq = rng.normal(size=(50, n, layer.hidden_dim))
        dx, _ = layer.backward(caches[i], np.ascontiguousarray(dh_seq.transpose(0, 2, 1)))
        h, D = layer.hidden_dim, layer.input_dim
        layer_in = caches[i][0][:-1, h : h + D].transpose(0, 2, 1)
        _, ref_layer_cache = _row_major_layer_forward(layer, np.ascontiguousarray(layer_in))
        ref_dx, _ = _row_major_layer_backward(layer, ref_layer_cache, dh_seq)
        assert _rel_dev(dx.transpose(0, 2, 1), ref_dx) <= 1e-12


def test_fused_forward_leaves_parameters_untouched():
    model = _trained_looking_model((16,), "softmax", seed=3)
    before = [p.copy() for p in model.param_arrays()]
    model.forward(np.random.default_rng(3).normal(size=(20, 5, 2)).transpose(1, 0, 2))
    for p, q in zip(model.param_arrays(), before):
        assert np.array_equal(p, q)


def test_bottom_layer_skips_only_the_unused_input_gradient():
    model = _trained_looking_model((16, 8), "softmax", seed=5)
    x = np.random.default_rng(5).normal(0.0, 2.0, (30, 9, 2)).transpose(1, 0, 2)
    _, (caches, _, _) = model.forward(x)
    dh_seq = np.random.default_rng(6).normal(size=(30, 16, 9))
    layer = model.layers[0]
    dx, grads = layer.backward(caches[0], dh_seq)
    skipped, same_grads = layer.backward(caches[0], dh_seq, input_grad=False)
    assert dx.shape == (30, 2, 9) and skipped is None
    for g, h in zip(grads, same_grads, strict=True):
        assert np.array_equal(g, h)


def test_named_parameters_stay_views_of_the_stacked_block(tmp_path):
    model = _trained_looking_model((16, 8), "softmax", seed=11)
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 2.0, (20, 40, 2)).transpose(1, 0, 2)
    logits, cache = model.forward(x)
    _, dlogits = weighted_cross_entropy(logits, rng.integers(0, 3, 40), output="softmax")
    before = [layer.W.copy() for layer in model.layers]
    Adam(model.param_arrays()).step(model.backward(cache, dlogits), 1e-2)
    save_model(model, tmp_path / "m.rkm")
    loaded = load_model(tmp_path / "m.rkm")

    for net in (model, loaded):
        for layer, old in zip(net.layers, before, strict=True):
            assert not np.array_equal(layer.W, old)
            assert np.array_equal(layer.W, np.vstack([layer.Wh, layer.Wx, layer.b]))
            for p in (layer.Wh, layer.Wx, layer.b):
                assert np.shares_memory(p, layer.W)
        rebuilt = LstmNetwork.from_arch(net.arch())
        for p, q in zip(rebuilt.param_arrays(), net.param_arrays(), strict=True):
            p[...] = q
        assert np.array_equal(net.forward(x)[0], rebuilt.forward(x)[0])
