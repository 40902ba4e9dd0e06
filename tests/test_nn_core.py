import json
import math
import struct

import numpy as np
import pytest

from readoutkit import (
    Adam,
    ConfigurationError,
    DenseNetwork,
    LstmNetwork,
    NumericalError,
    TrainConfig,
    lr_at,
    lstm_param_count,
    train,
)
from readoutkit.nn.activations import (
    SELU_ALPHA,
    SELU_LAMBDA,
    log_softmax,
    selu,
    selu_grad,
    sigmoid,
    softmax,
)
from readoutkit.nn.dense import dense_param_count
from readoutkit.nn.loss import weighted_cross_entropy
from readoutkit.nn.serialize import MODEL_MAGIC, MODEL_VERSION, load_model


def test_sigmoid_matches_logistic_form(rng):
    z = rng.normal(scale=3.0, size=200)
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)


def test_sigmoid_saturates_without_warnings():
    out = sigmoid(np.array([-1e6, -800.0, 800.0, 1e6]))
    assert np.array_equal(out, [0.0, 0.0, 1.0, 1.0])


def test_softmax_rows_sum_to_one_with_huge_logits():
    z = np.array([[1e4, 1e4 - 5.0, 0.0], [-1e4, 0.0, 1.0]])
    p = softmax(z, axis=1)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_log_softmax_consistency(rng):
    z = rng.normal(size=(10, 4))
    assert np.allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)


def test_selu_constants_and_values():
    assert abs(SELU_LAMBDA - 1.0507009873554805) < 1e-15
    assert abs(SELU_ALPHA - 1.6732632423543772) < 1e-15
    assert selu(np.array([0.0]))[0] == 0.0
    assert abs(selu(np.array([2.0]))[0] - 2.0 * SELU_LAMBDA) < 1e-12
    expected = SELU_LAMBDA * SELU_ALPHA * (math.exp(-1.0) - 1.0)
    assert abs(selu(np.array([-1.0]))[0] - expected) < 1e-12


def test_selu_grad_is_derivative(rng):
    z = rng.normal(size=100)
    eps = 1e-7
    numeric = (selu(z + eps) - selu(z - eps)) / (2 * eps)
    assert np.allclose(selu_grad(z), numeric, atol=1e-6)


def test_lstm_param_count_pinned_values():
    assert lstm_param_count(2, (16,), 3) == 1264
    assert lstm_param_count(1, (1,), 1) == 13


def test_lstm_param_count_matches_instance(rng):
    for _ in range(10):
        d = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(1, 9)) for _ in range(depth))
        out = int(rng.integers(1, 5))
        bias = bool(rng.integers(0, 2))
        model = LstmNetwork(d, hidden, out, output_bias=bias)
        assert model.param_count() == lstm_param_count(d, hidden, out, bias)


def test_dense_param_count_linear_in_input():
    for d in (3, 10, 63):
        assert dense_param_count(d, (32, 16, 8), 3) == 32 * d + 723
    model = DenseNetwork(63)
    assert model.param_count() == 32 * 63 + 723


def test_dense_from_arch_round_trip(rng):
    net = DenseNetwork(5, (4, 3), 2, output="sigmoid", seed=1)
    rebuilt = DenseNetwork.from_arch(net.arch(), seed=1)
    assert rebuilt.arch() == net.arch()
    for p, q in zip(rebuilt.param_arrays(), net.param_arrays(), strict=True):
        assert np.array_equal(p, q)
    x = rng.normal(size=(7, 5))
    assert np.array_equal(rebuilt.forward(x)[0], net.forward(x)[0])
    # a sigmoid output's probabilities are per-class sigmoids of the logits
    assert np.array_equal(net.predict_proba(x), sigmoid(net.predict_logits(x)))


@pytest.mark.parametrize("kind", ["dense", "lstm"])
def test_model_file_without_output_fields_loads_with_constructor_defaults(tmp_path, kind):
    # save_model writes every field; an older or hand-written block may not
    arch = {"kind": kind, "input_dim": 3, "hidden": [4], "output_dim": 2}
    net = (DenseNetwork if kind == "dense" else LstmNetwork)(3, (4,), 2, seed=2)
    params = np.concatenate([p.ravel() for p in net.param_arrays()])
    arch_bytes = json.dumps(arch).encode()
    head = struct.pack("<12sII", MODEL_MAGIC, MODEL_VERSION, len(arch_bytes))
    raw = head + arch_bytes + struct.pack("<Q", params.size) + params.astype("<f8").tobytes()
    (tmp_path / "m.rkm").write_bytes(raw)
    loaded = load_model(tmp_path / "m.rkm")
    assert type(loaded) is type(net)
    assert loaded.arch() == net.arch()  # output "softmax", and no output bias
    for p, q in zip(loaded.param_arrays(), net.param_arrays(), strict=True):
        assert np.array_equal(p, q)


def test_lstm_forward_matches_scalar_reference():
    # one unit, one input: replay the recurrence with plain floats
    model = LstmNetwork(1, (1,), 1, output_bias=True, seed=3)
    xs = [0.7, -1.1, 0.4]
    wx = model.layers[0].Wx[0]
    wh = model.layers[0].Wh[0]
    b = model.layers[0].b

    def sg(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = c = 0.0
    for x in xs:
        zi = x * wx[0] + h * wh[0] + b[0]
        zf = x * wx[1] + h * wh[1] + b[1]
        zg = x * wx[2] + h * wh[2] + b[2]
        zo = x * wx[3] + h * wh[3] + b[3]
        c = sg(zf) * c + sg(zi) * math.tanh(zg)
        h = sg(zo) * math.tanh(c)
    expected = h * model.W_out[0, 0] + model.b_out[0]

    logits, _ = model.forward(np.array(xs).reshape(1, 3, 1))
    assert abs(logits[0, 0] - expected) < 1e-12


def test_lstm_forget_bias_initialized_to_one():
    model = LstmNetwork(2, (4, 3), 3)
    for layer in model.layers:
        h = layer.hidden_dim
        assert np.array_equal(layer.b[h : 2 * h], np.ones(h))
        assert np.array_equal(layer.b[:h], np.zeros(h))
        assert np.array_equal(layer.b[2 * h :], np.zeros(2 * h))


def test_lstm_init_respects_fan_in_bounds():
    model = LstmNetwork(4, (8,), 3, seed=0)
    layer = model.layers[0]
    assert np.max(np.abs(layer.Wx)) <= 1.0 / math.sqrt(4)
    assert np.max(np.abs(layer.Wh)) <= 1.0 / math.sqrt(8)
    assert np.max(np.abs(model.W_out)) <= 1.0 / math.sqrt(8)


def test_lstm_batch_independence(rng):
    # each batch element's logits must not depend on its neighbors
    model = LstmNetwork(2, (5,), 3, seed=1)
    X = rng.normal(size=(7, 4, 2)).transpose(1, 0, 2)
    full, _ = model.forward(X)
    for k in range(4):
        single, _ = model.forward(X[k : k + 1])
        assert np.allclose(single[0], full[k], atol=1e-12)


def test_lstm_rejects_wrong_feature_width():
    model = LstmNetwork(2, (4,), 3)
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((5, 3, 1)))
    # prediction splits along the batch axis, and must still refuse input
    # without one
    for bad in (np.zeros((5, 3, 1)), np.zeros(5)):
        with pytest.raises(ConfigurationError):
            model.predict(bad)


def test_lstm_rejects_input_without_time_steps():
    model = LstmNetwork(2, (4,), 3)
    with pytest.raises(ConfigurationError, match="T >= 1"):
        model.forward(np.zeros((5, 0, 2)))
    with pytest.raises(ConfigurationError, match="T >= 1"):
        model.predict_logits(np.zeros((5, 0, 2)))


def test_dense_forward_matches_manual_composition(rng):
    model = DenseNetwork(4, (6, 5), 3, seed=2)
    x = rng.normal(size=(8, 4))
    a = x
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        a = selu(z) if k < 2 else z
    logits, _ = model.forward(x)
    assert np.allclose(logits, a, atol=1e-12)


def test_predict_breaks_ties_toward_lower_index():
    model = DenseNetwork(2, (3,), 3, seed=0)
    for W in model.weights:
        W[...] = 0.0
    logits = model.predict_logits(np.zeros((4, 2)))
    assert np.allclose(logits, 0.0)
    assert np.array_equal(model.predict(np.zeros((4, 2))), np.zeros(4, dtype=int))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((5, 3))
    labels = np.array([0, 1, 2, 0, 1])
    loss, dlogits = weighted_cross_entropy(logits, labels)
    assert abs(loss - math.log(3.0)) < 1e-12
    assert dlogits.shape == (5, 3)


def test_cross_entropy_matches_manual_value(rng):
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, 6)
    w = rng.uniform(0.1, 2.0, 6)
    loss, _ = weighted_cross_entropy(logits, labels, w)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    manual = -np.sum(w * np.log(p[np.arange(6), labels])) / np.sum(w)
    assert abs(loss - manual) < 1e-12


def test_weight_doubling_equals_duplication(rng):
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    w = np.array([1.0, 2.0, 1.0, 0.5])
    loss_w, _ = weighted_cross_entropy(logits, labels, w)

    reps = [1, 4, 2, 1]
    logits_dup = np.repeat(logits, reps, axis=0)
    labels_dup = np.repeat(labels, reps)
    w_dup = np.repeat(w / np.array(reps), reps)
    loss_dup, _ = weighted_cross_entropy(logits_dup, labels_dup, w_dup)
    assert abs(loss_w - loss_dup) < 1e-12


def test_zero_total_weight_gives_zero_loss_and_grads(rng):
    logits = rng.normal(size=(3, 3))
    labels = np.array([0, 1, 2])
    loss, dlogits = weighted_cross_entropy(logits, labels, np.zeros(3))
    assert loss == 0.0
    assert np.array_equal(dlogits, np.zeros_like(logits))


def test_sigmoid_output_loss_gradient_form(rng):
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, 5)
    loss, dlogits = weighted_cross_entropy(logits, labels, output="sigmoid")
    y = np.zeros((5, 3))
    y[np.arange(5), labels] = 1.0
    assert np.allclose(dlogits, (sigmoid(logits) - y) / 5.0, atol=1e-12)
    assert loss > 0


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ConfigurationError):
        weighted_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ConfigurationError):
        weighted_cross_entropy(np.zeros((2, 3)), np.array([0, 1]), np.array([-1.0, 1.0]))


def test_lr_schedule_pinned_examples():
    cfg = TrainConfig(learning_rate=1e-4, decay_gamma=0.9, decay_every=10)
    assert abs(lr_at(cfg, 0) - 1e-4) < 1e-18
    assert abs(lr_at(cfg, 9) - 1e-4) < 1e-18
    assert abs(lr_at(cfg, 10) - 9e-5) < 1e-18
    assert abs(lr_at(cfg, 25) - 1e-4 * 0.9**2) < 1e-18


def test_adam_matches_hand_computed_steps():
    p = np.array([1.0])
    opt = Adam([p])
    opt.step([np.array([0.5])], lr=0.1)
    # first step: bias-corrected moments equal the raw gradient
    expected1 = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert abs(p[0] - expected1) < 1e-12

    opt.step([np.array([0.5])], lr=0.1)
    m = 0.9 * 0.05 + 0.1 * 0.5
    v = 0.999 * 0.00025 + 0.001 * 0.25
    mhat = m / (1.0 - 0.9**2)
    vhat = v / (1.0 - 0.999**2)
    expected2 = expected1 - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
    assert abs(p[0] - expected2) < 1e-12


def test_adam_updates_in_place():
    model = DenseNetwork(2, (3,), 2, seed=0)
    params = model.param_arrays()
    opt = Adam(params)
    before = [q.copy() for q in params]
    opt.step([np.ones_like(q) for q in params], lr=1e-2)
    after = model.param_arrays()
    for b, a in zip(before, after):
        assert not np.allclose(b, a)


def test_training_reduces_loss_dense(rng):
    X = np.concatenate([rng.normal(-1.0, 0.3, (40, 2)), rng.normal(1.0, 0.3, (40, 2))])
    y = np.array([0] * 40 + [1] * 40)
    model = DenseNetwork(2, (8,), 2, seed=1)
    hist = train(
        model, X, y, config=TrainConfig(epochs=30, batch_size=16, learning_rate=1e-2)
    )
    assert len(hist) == 30
    assert hist[-1]["loss"] < hist[0]["loss"] * 0.5
    assert np.mean(model.predict(X) == y) > 0.95


def test_training_reduces_loss_lstm(rng):
    # class 0 drifts down, class 1 drifts up
    T, n = 12, 30
    up = np.cumsum(rng.normal(0.2, 0.5, (T, n, 1)), axis=0)
    down = np.cumsum(rng.normal(-0.2, 0.5, (T, n, 1)), axis=0)
    X = np.concatenate([down, up], axis=1).transpose(1, 0, 2)
    y = np.array([0] * n + [1] * n)
    model = LstmNetwork(1, (6,), 2, seed=1)
    hist = train(
        model, X, y, config=TrainConfig(epochs=40, batch_size=20, learning_rate=1e-2)
    )
    assert hist[-1]["loss"] < hist[0]["loss"]
    assert np.mean(model.predict(X) == y) > 0.9


def test_training_history_has_one_record_per_epoch(rng):
    X = rng.normal(size=(10, 4))
    y = rng.integers(0, 2, 10)
    model = DenseNetwork(4, (3,), 2, seed=0)
    seen = []
    hist = train(
        model,
        X,
        y,
        config=TrainConfig(epochs=7, batch_size=4),
        log_fn=lambda r: seen.append(r["epoch"]),
    )
    assert seen == list(range(7))
    assert [h["epoch"] for h in hist] == list(range(7))


def test_training_is_deterministic(rng):
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, 30)
    outs = []
    for _ in range(2):
        model = DenseNetwork(4, (5,), 3, seed=7)
        train(model, X, y, config=TrainConfig(epochs=5, batch_size=8, seed=3))
        outs.append(np.concatenate([p.reshape(-1) for p in model.param_arrays()]))
    assert np.array_equal(outs[0], outs[1])
    # without shuffling, every epoch's batches are the rows in order
    model = DenseNetwork(4, (5,), 3, seed=7)
    batches, forward = [], model.forward
    model.forward = lambda xb: (batches.append(xb), forward(xb))[1]
    train(model, X, y, config=TrainConfig(epochs=2, batch_size=8, shuffle=False))
    assert np.array_equal(np.concatenate(batches), np.concatenate([X, X]))


def test_training_weights_shift_decisions(rng):
    # a heavily weighted minority class must dominate the fit
    X = np.concatenate([rng.normal(-0.2, 0.05, (30, 1)), rng.normal(0.2, 0.05, (5, 1))])
    y = np.array([0] * 30 + [1] * 5)
    w = np.array([1.0] * 30 + [50.0] * 5)
    model = DenseNetwork(1, (4,), 2, seed=2)
    train(model, X, y, weights=w, config=TrainConfig(epochs=60, batch_size=8, learning_rate=1e-2))
    assert np.all(model.predict(np.array([[0.15], [0.3]])) == 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises_with_batch_index(rng):
    X = rng.normal(size=(12, 3)) * 1e150
    y = rng.integers(0, 2, 12)
    model = DenseNetwork(3, (4,), 2, seed=0)
    for W in model.weights:
        W *= 1e150
    with pytest.raises(NumericalError) as excinfo:
        train(model, X, y, config=TrainConfig(epochs=2, batch_size=6))
    assert excinfo.value.batch_index is not None


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(decay_gamma=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(decay_every=0)


def test_train_config_holds_numpy_scalars_as_python_values():
    cfg = TrainConfig(epochs=np.int64(3), learning_rate=np.float32(0.5), shuffle=np.bool_(False))
    assert cfg == TrainConfig(epochs=3, learning_rate=0.5, shuffle=False)
    assert [type(v) for v in (cfg.epochs, cfg.learning_rate, cfg.shuffle)] == [int, float, bool]
