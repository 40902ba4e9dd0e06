import numpy as np
import pytest

from readoutkit import DenseNetwork, LstmNetwork
from readoutkit.nn.gradcheck import gradient_check
from readoutkit.nn.loss import weighted_cross_entropy

TOL = 1e-4


def random_case(rng, kind):
    n = int(rng.integers(3, 9))
    n_classes = int(rng.integers(2, 5))
    labels = rng.integers(0, n_classes, n)
    weights = rng.uniform(0.2, 1.5, n) if rng.random() < 0.5 else None
    output = "sigmoid" if rng.random() < 0.3 else "softmax"
    if kind == "lstm":
        T = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(depth))
        model = LstmNetwork(
            d,
            hidden,
            n_classes,
            output_bias=bool(rng.integers(0, 2)),
            output=output,
            seed=int(rng.integers(0, 10000)),
        )
        X = rng.normal(size=(T, n, d)).transpose(1, 0, 2)
    else:
        d = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth))
        model = DenseNetwork(
            d, hidden, n_classes, output=output, seed=int(rng.integers(0, 10000))
        )
        X = rng.normal(size=(n, d))
    return model, X, labels, weights


@pytest.mark.parametrize("kind", ["lstm", "dense"])
def test_analytic_gradients_match_finite_differences(kind, rng):
    for trial in range(12):
        model, X, labels, weights = random_case(rng, kind)
        err = gradient_check(
            model, X, labels, weights, n_checks=25, seed=trial
        )
        assert err < TOL, f"trial {trial}: worst relative error {err}"


def test_gradcheck_catches_a_broken_gradient(rng):
    # sanity check that the checker would actually fail on a wrong gradient
    model = DenseNetwork(3, (4,), 2, seed=0)

    class Broken:
        output = "softmax"

        def param_arrays(self):
            return model.param_arrays()

        def forward(self, x):
            return model.forward(x)

        def backward(self, cache, dlogits):
            grads = model.backward(cache, dlogits)
            grads[0] = grads[0] * 1.5
            return grads

    X = rng.normal(size=(6, 3))
    labels = rng.integers(0, 2, 6)
    err = gradient_check(Broken(), X, labels, n_checks=200, seed=1)
    assert err > 1e-2


def test_full_reference_sequence_model_grads(rng):
    # the stock trajectory classifier: 2 inputs, 16 units, 3 classes
    model = LstmNetwork(2, (16,), 3, seed=5)
    X = rng.normal(size=(20, 6, 2)).transpose(1, 0, 2)
    labels = rng.integers(0, 3, 6)
    err = gradient_check(model, X, labels, n_checks=60, seed=2)
    assert err < TOL


def test_gradcheck_runs_float32_input_on_the_float64_path(rng):
    # central differences of float32 arithmetic are rounding noise at this
    # step size, so the check casts X to float64 first
    model = LstmNetwork(2, (16,), 3, seed=5)
    X = rng.normal(size=(20, 6, 2)).astype(np.float32).transpose(1, 0, 2)
    labels = rng.integers(0, 3, 6)
    err32 = gradient_check(model, X, labels, n_checks=60, seed=2)
    err64 = gradient_check(model, X.astype(np.float64), labels, n_checks=60, seed=2)
    assert err32 == err64 < TOL


def test_feature_model_grads_with_weights(rng):
    model = DenseNetwork(63, (32, 16, 8), 3, seed=5)
    X = rng.normal(size=(8, 63))
    labels = rng.integers(0, 3, 8)
    weights = rng.uniform(0.1, 1.0, 8)
    err = gradient_check(model, X, labels, weights, n_checks=60, seed=3)
    assert err < TOL


def test_gradients_flow_to_every_parameter_tensor(rng):
    model = LstmNetwork(2, (4, 3), 3, output_bias=True, seed=7)
    X = rng.normal(size=(6, 5, 2)).transpose(1, 0, 2)
    labels = rng.integers(0, 3, 5)
    logits, cache = model.forward(X)
    _, dlogits = weighted_cross_entropy(logits, labels)
    grads = model.backward(cache, dlogits)
    assert len(grads) == len(model.param_arrays())
    for g, p in zip(grads, model.param_arrays()):
        assert g.shape == p.shape
        assert np.any(g != 0.0)
