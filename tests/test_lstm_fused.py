"""The fused LSTM step against the plain per-gate loop, compared bit for bit.

The reference below is the straightforward form of the recurrence: each gate
block gets its own ``sigmoid`` or ``tanh`` and is then stored into the cache.
The fused forward must reproduce its logits, every cache array, and every
gradient exactly, not merely to a tolerance.
"""

import numpy as np
import pytest

from readoutkit.nn.activations import sigmoid
from readoutkit.nn.loss import weighted_cross_entropy
from readoutkit.nn.lstm import LstmNetwork


def _reference_layer_forward(layer, x):
    T, N, _ = x.shape
    h = layer.hidden_dim
    zx = (x.reshape(T * N, -1) @ layer.Wx).reshape(T, N, 4 * h) + layer.b
    gates = np.empty((T, N, 4 * h))
    cs = np.empty((T, N, h))
    tanh_cs = np.empty((T, N, h))
    hs = np.empty((T, N, h))
    h_t = np.zeros((N, h))
    c_t = np.zeros((N, h))
    for t in range(T):
        z = zx[t] + h_t @ layer.Wh
        zi, zf, zg, zo = z[:, :h], z[:, h : 2 * h], z[:, 2 * h : 3 * h], z[:, 3 * h :]
        gi, gf, go = sigmoid(zi), sigmoid(zf), sigmoid(zo)
        gg = np.tanh(zg)
        c_t = gf * c_t + gi * gg
        tc = np.tanh(c_t)
        h_t = go * tc
        gates[t, :, :h] = gi
        gates[t, :, h : 2 * h] = gf
        gates[t, :, 2 * h : 3 * h] = gg
        gates[t, :, 3 * h :] = go
        cs[t] = c_t
        tanh_cs[t] = tc
        hs[t] = h_t
    return hs, (x, gates, cs, tanh_cs, hs)


def _reference_forward(model, x):
    caches = []
    seq = x
    for layer in model.layers:
        seq, cache = _reference_layer_forward(layer, seq)
        caches.append(cache)
    h_final = seq[-1]
    logits = h_final @ model.W_out
    if model.b_out is not None:
        logits = logits + model.b_out
    return logits, (caches, h_final, x.shape)


def _trained_looking_model(hidden, output, seed):
    """A network whose biases and weights are off their init values, so every
    gate block sees a spread of pre-activations."""
    model = LstmNetwork(input_dim=2, hidden=hidden, output_dim=3, output_bias=True,
                        output=output, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for p in model.param_arrays():
        p += rng.normal(0.0, 0.5, p.shape)
    return model


@pytest.mark.parametrize("n", [1, 7, 256])
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("output", ["softmax", "sigmoid"])
def test_fused_forward_and_gradients_are_bit_identical(n, hidden, output):
    model = _trained_looking_model(hidden, output, seed=n)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 2.0, (50, n, 2))
    labels = rng.integers(0, 3, n)

    logits, cache = model.forward(x)
    ref_logits, ref_cache = _reference_forward(model, x)
    assert np.array_equal(logits, ref_logits)

    caches, h_final, shape = cache
    ref_caches, ref_h_final, ref_shape = ref_cache
    assert shape == ref_shape
    assert np.array_equal(h_final, ref_h_final)
    assert len(caches) == len(ref_caches) == len(hidden)
    for layer_cache, ref_layer_cache in zip(caches, ref_caches):
        for arr, ref_arr in zip(layer_cache, ref_layer_cache, strict=True):
            assert arr.shape == ref_arr.shape
            assert np.array_equal(arr, ref_arr)

    _, dlogits = weighted_cross_entropy(logits, labels, np.ones(n), output=output)
    grads = model.backward(cache, dlogits)
    ref_grads = model.backward(ref_cache, dlogits)
    assert len(grads) == len(model.param_arrays())
    for g, ref_g in zip(grads, ref_grads, strict=True):
        assert np.array_equal(g, ref_g)


def test_fused_forward_leaves_parameters_untouched():
    model = _trained_looking_model((16,), "softmax", seed=3)
    before = [p.copy() for p in model.param_arrays()]
    model.forward(np.random.default_rng(3).normal(size=(20, 5, 2)))
    for p, q in zip(model.param_arrays(), before):
        assert np.array_equal(p, q)


def test_bottom_layer_skips_only_the_unused_input_gradient():
    model = _trained_looking_model((16, 8), "softmax", seed=5)
    x = np.random.default_rng(5).normal(0.0, 2.0, (30, 9, 2))
    _, (caches, _, _) = model.forward(x)
    dh_seq = np.random.default_rng(6).normal(size=(30, 9, 16))
    layer = model.layers[0]
    dx, grads = layer.backward(caches[0], dh_seq)
    skipped, same_grads = layer.backward(caches[0], dh_seq, input_grad=False)
    assert dx.shape == x.shape and skipped is None
    for g, h in zip(grads, same_grads, strict=True):
        assert np.array_equal(g, h)
