import numpy as np
import pytest

from readoutkit import GmmClassifier
from readoutkit.errors import ConfigurationError, DataError, IncompatibilityError


def three_blobs(rng, n=200, spread=0.3):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    pts = []
    labels = []
    for c, center in enumerate(centers):
        pts.append(rng.normal(center, spread, (n, 2)))
        labels.extend([c] * n)
    return np.concatenate(pts), np.array(labels)


def test_fit_recovers_means_and_priors(rng):
    X, y = three_blobs(rng, n=500)
    model = GmmClassifier.fit(X, y)
    assert np.allclose(model.means, [[0, 0], [4, 0], [0, 4]], atol=0.08)
    assert np.allclose(model.priors, [1 / 3] * 3, atol=1e-12)


def test_fit_uses_biased_covariance_estimator(rng):
    X = rng.normal(size=(50, 2))
    y = np.zeros(50, dtype=int)
    model = GmmClassifier.fit(X, y)
    centered = X - X.mean(axis=0)
    expected = centered.T @ centered / 50
    # modulo the tiny diagonal ridge
    assert np.allclose(model.covs[0], expected, atol=1e-8 * np.trace(expected))


def test_log_posteriors_match_direct_density(rng):
    X, y = three_blobs(rng, n=100)
    model = GmmClassifier.fit(X, y)
    probe = rng.normal(1.5, 2.0, (20, 2))
    lp = model.log_posteriors(probe)
    for c in range(3):
        cov = model.covs[c]
        diff = probe - model.means[c]
        inv = np.linalg.inv(cov)
        maha = np.einsum("nd,de,ne->n", diff, inv, diff)
        direct = (
            -0.5 * maha
            - 0.5 * np.log(np.linalg.det(2.0 * np.pi * cov))
            + np.log(model.priors[c])
        )
        assert np.allclose(lp[:, c], direct, atol=1e-9)


def test_predict_proba_normalizes_even_for_distant_points(rng):
    X, y = three_blobs(rng)
    model = GmmClassifier.fit(X, y)
    far = np.array([[1e3, 1e3], [-1e3, 0.0]])
    p = model.predict_proba(far)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_predict_is_argmax_with_low_index_ties():
    means = np.array([[-1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    covs = np.stack([np.eye(2)] * 3)
    model = GmmClassifier(means, covs, np.array([1 / 3] * 3))
    # the midpoint of classes 0 and 1 is an exact tie
    assert model.predict(np.array([[0.0, 0.0]]))[0] == 0
    assert model.predict(np.array([[0.9, 0.0]]))[0] == 1


def test_classification_accuracy_on_separated_blobs(rng):
    X, y = three_blobs(rng, n=300, spread=0.5)
    model = GmmClassifier.fit(X, y)
    assert np.mean(model.predict(X) == y) > 0.99


def test_anisotropic_covariance_shapes_the_boundary(rng):
    # class 0 is wide in x, class 1 narrow: a point at x=2.2 on the axis
    # between them is likelier under the wide class despite equal distance
    a = np.stack([rng.normal(0, 2.0, 2000), rng.normal(0, 0.2, 2000)], axis=1)
    b = np.stack([rng.normal(4.4, 0.2, 2000), rng.normal(0, 0.2, 2000)], axis=1)
    X = np.concatenate([a, b])
    y = np.array([0] * 2000 + [1] * 2000)
    model = GmmClassifier.fit(X, y)
    assert model.predict(np.array([[2.2, 0.0]]))[0] == 0


def test_confidence_weights_floor_and_range(rng):
    X, y = three_blobs(rng, n=100, spread=1.2)
    model = GmmClassifier.fit(X, y)
    w = model.confidence_weights(X, y, floor=0.25)
    assert np.all(w >= 0.25)
    assert np.all(w <= 1.0)
    w0 = model.confidence_weights(X, y, floor=0.0)
    assert np.any(w0 < 0.25)


def test_confidence_weights_high_for_clean_separation(rng):
    X, y = three_blobs(rng, n=100, spread=0.2)
    model = GmmClassifier.fit(X, y)
    w = model.confidence_weights(X, y)
    assert np.mean(w) > 0.99


def test_flat_roundtrip(rng):
    X, y = three_blobs(rng)
    model = GmmClassifier.fit(X, y)
    flat = np.concatenate([p.reshape(-1) for p in model.param_arrays()])
    clone = GmmClassifier.from_flat(model.arch(), flat)
    probe = rng.normal(size=(10, 2))
    assert np.array_equal(model.predict(probe), clone.predict(probe))
    assert np.array_equal(model.log_posteriors(probe), clone.log_posteriors(probe))


def test_fit_rejects_degenerate_input(rng):
    with pytest.raises(DataError):
        # class 1 has a single sample
        GmmClassifier.fit(np.zeros((4, 2)), np.array([0, 0, 0, 1]))
    with pytest.raises(DataError):
        # missing class 1 entirely
        GmmClassifier.fit(rng.normal(size=(10, 2)), np.array([0] * 5 + [2] * 5))
    with pytest.raises(ConfigurationError):
        GmmClassifier.fit(np.zeros(5), np.zeros(5, dtype=int))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_points(rng, bad):
    X, y = three_blobs(rng)
    X[7, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        GmmClassifier.fit(X, y)


def test_dimension_mismatch_raises(rng):
    X, y = three_blobs(rng)
    model = GmmClassifier.fit(X, y)
    with pytest.raises(IncompatibilityError):
        model.predict(np.zeros((3, 5)))


def test_posteriors_need_a_points_matrix(rng):
    # a single point is a (1, dim) array, as in fit
    X, y = three_blobs(rng)
    model = GmmClassifier.fit(X, y)
    for points in (X[0], X[None]):
        with pytest.raises(ConfigurationError, match=r"\(n, dim\)"):
            model.predict(points)
    assert model.predict(X[:1]).shape == (1,)
