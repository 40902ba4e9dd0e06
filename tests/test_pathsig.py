import math

import numpy as np
import pytest

from readoutkit import (
    ConfigurationError,
    batch_signature,
    path_transform,
    signature,
    signature_length,
    trajectory_signature,
)


def _tensor_product(a, b, order):
    """Truncated tensor-algebra product of two level lists."""
    return [
        sum(np.multiply.outer(a[j], b[k - j]) for j in range(k + 1)) for k in range(order + 1)
    ]


def _per_path_signature(points, order):
    """Per-path Chen loop that skips stationary steps: a reference that
    shares no code with ``batch_signature``."""
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]
    sig = [np.ones(())] + [np.zeros((dim,) * k) for k in range(1, order + 1)]
    for n in range(1, pts.shape[0]):
        delta = pts[n] - pts[n - 1]
        if not np.any(delta):
            continue
        seg = [np.ones(())]
        for k in range(1, order + 1):
            seg.append(np.multiply.outer(seg[-1], delta) / k)
        out = []
        for k in range(order + 1):
            acc = np.zeros(sig[k].shape)
            for j in range(k + 1):
                acc = acc + np.multiply.outer(sig[j], seg[k - j])
            out.append(acc)
        sig = out
    return sig


def _level_bound(points, k):
    """Rounding bound ``k (n-1) eps L^k / k!`` on level k, where ``L`` is the
    path's 1-norm length and ``L^k / k!`` bounds the level's entries."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    length = np.abs(np.diff(pts, axis=0)).sum()
    eps = np.finfo(float).eps
    return k * (len(pts) - 1) * eps * length**k / math.factorial(k)


def test_path_transform_uniform_weights_example():
    out = path_transform(np.array([0.0, 1.0, 3.0]))
    assert np.array_equal(out, [0.0, 1.0, 3.0])


def test_path_transform_weighted_example():
    out = path_transform(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 2.0]))
    assert np.array_equal(out, [0.0, 2.0, 6.0])


def test_path_transform_uniform_equals_offset_removal(rng):
    for _ in range(25):
        x = rng.normal(size=int(rng.integers(2, 40)))
        assert np.allclose(path_transform(x), x - x[0], atol=1e-12)


def test_path_transform_first_output_always_zero(rng):
    for _ in range(25):
        n = int(rng.integers(1, 30))
        x = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, size=n)
        assert path_transform(x, w)[0] == 0.0


def test_path_transform_batch_rows(rng):
    x = rng.normal(size=(4, 9))
    w = rng.uniform(0.5, 1.5, size=9)
    out = path_transform(x, w)
    for k in range(4):
        assert np.allclose(out[k], path_transform(x[k], w), atol=1e-15)


def test_path_transform_rejects_mismatched_weights():
    with pytest.raises(ConfigurationError):
        path_transform(np.zeros(4), np.zeros(3))


def test_signature_length_values():
    assert signature_length(2, 5) == 63
    assert signature_length(2, 0) == 1
    assert signature_length(2, 1) == 3
    assert signature_length(1, 4) == 5
    assert signature_length(3, 3) == 40


def test_signature_trivial_path():
    sig = signature(np.array([[1.0, 2.0]]), 3)
    flat = sig.flatten()
    assert flat[0] == 1.0
    assert np.allclose(flat[1:], 0.0)


def test_single_segment_levels_are_scaled_tensor_powers(rng):
    # straight segment: level k must equal the k-fold tensor power of the
    # displacement divided by k!
    for _ in range(10):
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        sig = signature(np.stack([a, b]), 5)
        delta = b - a
        power = np.ones(())
        for k in range(6):
            if k > 0:
                power = np.multiply.outer(power, delta)
            expected = power / math.factorial(k)
            assert np.allclose(sig.levels[k], expected, atol=1e-10)


def test_two_segment_axis_path_oracle():
    # unit step right then unit step up: every iterated integral is known
    # in closed form
    sig = signature(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), 2)
    assert np.allclose(sig.levels[1], [1.0, 1.0], atol=1e-14)
    # level 2 in C order: [xx, xy, yx, yy]
    assert np.allclose(
        sig.levels[2], [[0.5, 1.0], [0.0, 0.5]], atol=1e-14
    )


def test_level2_antisymmetric_part_is_signed_area(rng):
    # the antisymmetric part of level 2 equals half the Levy area, which for
    # a closed triangle is its signed euclidean area
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    sig = signature(tri, 2)
    lv2 = sig.levels[2]
    area = 0.5 * (lv2[0, 1] - lv2[1, 0]) * 2.0
    assert abs(area - (-6.0)) < 1e-12 or abs(area - 6.0) < 1e-12
    # orientation flips the sign
    sig_rev = signature(tri[::-1], 2)
    assert abs(sig_rev.levels[2][0, 1] - lv2[1, 0]) < 1e-12


def test_reparametrization_invariance(rng):
    # inserting collinear intermediate points must not change the signature
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    direct = signature(np.stack([a, b]), 5).flatten()
    ts = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 7)]))
    dense = signature(a[None, :] + ts[:, None] * (b - a)[None, :], 5).flatten()
    assert np.allclose(direct, dense, atol=1e-10)


def test_concatenation_matches_tensor_product(rng):
    # the signature of a concatenated path equals the truncated tensor
    # product of the parts' signatures
    for _ in range(10):
        p1 = rng.normal(size=(4, 2))
        p2 = rng.normal(size=(5, 2))
        p2 = p2 - p2[0] + p1[-1]
        joined = np.concatenate([p1, p2[1:]])
        sig_joined = signature(joined, 4)
        combined = _tensor_product(signature(p1, 4).levels, signature(p2, 4).levels, 4)
        for lv_j, lv_c in zip(sig_joined.levels, combined):
            assert np.allclose(lv_j, lv_c, atol=1e-8)


def test_flatten_is_level_major():
    sig = signature(np.array([[0.0, 0.0], [1.0, 2.0]]), 2)
    flat = sig.flatten()
    assert flat.shape == (7,)
    assert flat[0] == 1.0
    assert np.allclose(flat[1:3], sig.levels[1])
    assert np.allclose(flat[3:], sig.levels[2].reshape(-1))


def test_trajectory_signature_default_width(rng):
    path = rng.normal(size=(20, 2))
    flat = trajectory_signature(path)
    assert flat.shape == (63,)


def test_batch_signature_matches_per_path(rng):
    # a path's row has the same bytes alone, in batches of 7 and in one of 600
    paths = rng.normal(size=(600, 12, 2)).cumsum(axis=1)
    batch = batch_signature(paths, 5)
    assert batch.shape == (600, 63)
    sevens = np.concatenate([batch_signature(paths[i : i + 7], 5) for i in range(0, 600, 7)])
    for k in range(600):
        alone = signature(paths[k], 5).flatten()
        assert alone.tobytes() == batch[k].tobytes() == sevens[k].tobytes()


def test_batch_signature_handles_stationary_steps(rng):
    path = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    batch = batch_signature(path[None, :, :], 3)
    direct = signature(path, 3).flatten()
    assert np.allclose(batch[0], direct, atol=1e-12)


def test_segment_signature_norm_decay(rng):
    # level norms of a straight segment are |delta|**k / k!
    delta = np.array([0.6, -0.8])
    levels = signature(np.stack([np.zeros(2), delta]), 6).levels
    for k, lv in enumerate(levels):
        assert abs(np.sqrt(np.sum(lv**2)) - 1.0 / math.factorial(k)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 9, 20])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 5])
def test_signature_matches_per_path_chen_loop(n, dim, order):
    # Horner's scheme and the Chen product coincide up to order 1; above
    # that they round differently, within the per-level bound
    rng = np.random.default_rng(100 * n + 10 * dim + order)
    pts = rng.normal(size=(n, dim))
    if n > 2:
        pts[2] = pts[1]  # a stationary step
    got = signature(pts, order).levels
    want = _per_path_signature(pts, order)
    assert len(got) == order + 1
    for k, (lv_got, lv_want) in enumerate(zip(got, want)):
        assert lv_got.shape == lv_want.shape == (dim,) * k
        if order <= 1:
            assert lv_got.tobytes() == lv_want.tobytes()
        else:
            assert np.max(np.abs(lv_got - lv_want)) <= _level_bound(pts, k)


def test_one_dimensional_levels_are_scaled_powers_of_the_displacement(rng):
    # in one dimension level k is (x_end - x_0)^k / k! for any path: an
    # oracle independent of both the Horner update and the Chen product
    for _ in range(200):
        steps = int(rng.integers(2, 201))
        order = int(rng.integers(0, 7))
        x = np.cumsum(rng.normal(size=steps + 1))
        got = batch_signature(x[None, :, None], order)[0]
        for k in range(order + 1):
            exact = (x[-1] - x[0]) ** k / math.factorial(k)
            assert abs(got[k] - exact) <= _level_bound(x, k)


def test_signature_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        signature(np.zeros((0, 2)), 3)
    with pytest.raises(ConfigurationError):
        signature(np.zeros(3), 3)  # a 1-D path is a (n, 1) array
    with pytest.raises(ConfigurationError):
        signature(np.zeros((3, 2)), -1)
    with pytest.raises(ConfigurationError):
        batch_signature(np.zeros((3, 2)), 2)
    with pytest.raises(ConfigurationError):
        batch_signature(np.zeros((3, 0, 2)), 2)  # paths with no points
    for order in (2.5, True, -1, "2"):
        with pytest.raises(ConfigurationError):
            batch_signature(np.zeros((3, 4, 2)), order)
        with pytest.raises(ConfigurationError):
            signature_length(2, order)
