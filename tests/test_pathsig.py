import math

import numpy as np
import pytest

from readoutkit import (
    ConfigurationError,
    batch_signature,
    path_transform,
    signature_length,
    trajectory_signature,
)


def _levels(points, order):
    """One path's signature split into its levels: level k is the
    ``(dim,) * k`` tensor whose C-order entries follow level k-1's in the
    flat vector."""
    flat = trajectory_signature(points, order)
    dim = np.shape(points)[1]
    ends = np.cumsum([dim**k for k in range(order + 1)])
    return [lvl.reshape((dim,) * k) for k, lvl in enumerate(np.split(flat, ends[:-1]))]


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


def _batch_major_signature(paths, order):
    """The Horner recurrence with the batch on the first axis, level k a
    (batch, dim**k) array: the same operations per entry as
    ``batch_signature`` in another memory layout, so a byte oracle."""
    pts = np.asarray(paths, dtype=float)
    nb, n, dim = pts.shape
    sig = [np.ones((nb, 1))] + [np.zeros((nb, dim**k)) for k in range(1, order + 1)]
    buf = [None] + [np.empty((nb, dim**k)) for k in range(1, order + 1)]
    delta = np.empty((nb, dim))
    scaled = [None] + [np.empty((nb, dim)) for _ in range(order)]
    for step in range(1, n):
        np.subtract(pts[:, step], pts[:, step - 1], out=delta)
        for j in range(1, order + 1):
            np.divide(delta, j, out=scaled[j])
        for k in range(order, 0, -1):
            b = scaled[k]
            for i in range(1, k):
                np.add(b, sig[i], out=buf[i])
                b = buf[i + 1]
                outer = b.reshape(nb, dim**i, dim)
                np.multiply(buf[i][:, :, None], scaled[k - i][:, None, :], out=outer)
            sig[k] += b
    return np.concatenate(sig, axis=1)


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
    flat = trajectory_signature(np.array([[1.0, 2.0]]), 3)
    assert flat[0] == 1.0
    assert np.allclose(flat[1:], 0.0)


def test_single_segment_levels_are_scaled_tensor_powers(rng):
    # straight segment: level k must equal the k-fold tensor power of the
    # displacement divided by k!
    for _ in range(10):
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        levels = _levels(np.stack([a, b]), 5)
        delta = b - a
        power = np.ones(())
        for k in range(6):
            if k > 0:
                power = np.multiply.outer(power, delta)
            expected = power / math.factorial(k)
            assert np.allclose(levels[k], expected, atol=1e-10)


def test_two_segment_axis_path_oracle():
    # unit step right then unit step up: every iterated integral is known
    # in closed form
    levels = _levels(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), 2)
    assert np.allclose(levels[1], [1.0, 1.0], atol=1e-14)
    # level 2 in C order: [xx, xy, yx, yy]
    assert np.allclose(levels[2], [[0.5, 1.0], [0.0, 0.5]], atol=1e-14)


def test_level2_antisymmetric_part_is_signed_area(rng):
    # the antisymmetric part of level 2 equals half the Levy area, which for
    # a closed triangle is its signed euclidean area
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    lv2 = _levels(tri, 2)[2]
    area = 0.5 * (lv2[0, 1] - lv2[1, 0]) * 2.0
    assert abs(area - (-6.0)) < 1e-12 or abs(area - 6.0) < 1e-12
    # orientation flips the sign
    assert abs(_levels(tri[::-1], 2)[2][0, 1] - lv2[1, 0]) < 1e-12


def test_reparametrization_invariance(rng):
    # inserting collinear intermediate points must not change the signature
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    direct = trajectory_signature(np.stack([a, b]), 5)
    ts = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 7)]))
    dense = trajectory_signature(a[None, :] + ts[:, None] * (b - a)[None, :], 5)
    assert np.allclose(direct, dense, atol=1e-10)


def test_concatenation_matches_tensor_product(rng):
    # the signature of a concatenated path equals the truncated tensor
    # product of the parts' signatures
    for _ in range(10):
        p1 = rng.normal(size=(4, 2))
        p2 = rng.normal(size=(5, 2))
        p2 = p2 - p2[0] + p1[-1]
        joined = np.concatenate([p1, p2[1:]])
        combined = _tensor_product(_levels(p1, 4), _levels(p2, 4), 4)
        for lv_j, lv_c in zip(_levels(joined, 4), combined):
            assert np.allclose(lv_j, lv_c, atol=1e-8)


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
        alone = trajectory_signature(paths[k], 5)
        assert alone.tobytes() == batch[k].tobytes() == sevens[k].tobytes()


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 5, 8])
def test_batch_signature_matches_batch_major_layout(n, dim, order):
    # keeping the batch on the innermost axis changes the memory layout,
    # not a single byte of the result
    rng = np.random.default_rng(1000 * n + 10 * dim + order)
    for nb in (0, 1, 7, 600):
        paths = rng.normal(size=(nb, n, dim)).cumsum(axis=1)
        got = batch_signature(paths, order)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (nb, signature_length(dim, order))
        assert got.tobytes() == _batch_major_signature(paths, order).tobytes()


def test_segment_signature_norm_decay(rng):
    # level norms of a straight segment are |delta|**k / k!
    delta = np.array([0.6, -0.8])
    levels = _levels(np.stack([np.zeros(2), delta]), 6)
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
    got = _levels(pts, order)
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
        trajectory_signature(np.zeros((0, 2)), 3)
    with pytest.raises(ConfigurationError):
        trajectory_signature(np.zeros(3), 3)  # a 1-D path is a (n, 1) array
    with pytest.raises(ConfigurationError):
        trajectory_signature(np.zeros((3, 2)), -1)
    with pytest.raises(ConfigurationError):
        batch_signature(np.zeros((3, 2)), 2)
    with pytest.raises(ConfigurationError):
        batch_signature(np.zeros((3, 0, 2)), 2)  # paths with no points
    for order in (2.5, True, -1, "2"):
        with pytest.raises(ConfigurationError):
            batch_signature(np.zeros((3, 4, 2)), order)
        with pytest.raises(ConfigurationError):
            signature_length(2, order)
