"""Path-space features for demodulated trajectories.

Two feature maps live here: a causal weighted-increment transform applied
channel-wise, and truncated path signatures of piecewise-linear paths in
d dimensions.  A linear segment's signature is the truncated tensor
exponential of its displacement, and a path's signature is the
tensor-algebra (Chen) product of its segments'.  :func:`batch_signature`
fuses each step's exponential and product into one Horner update, the
multiply-exponentiate of Kidger & Lyons, *Signatory* (ICLR 2021), and
keeps the batch on the innermost axis of every level, so each of a step's
elementwise calls is one contiguous pass over all paths.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, is_integer


def path_transform(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sum of weighted increments along the last axis.

    ``out[n] = sum_{m<=n} w[m] * (values[m] - values[m-1])`` with the
    convention ``values[-1] = values[0]`` (the first increment is zero).
    Uniform weights reduce this to ``values - values[0]``.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[-1] == 0:
        raise ConfigurationError("path_transform expects a non-empty series")
    inc = np.diff(x, axis=-1, prepend=x[..., :1])
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (x.shape[-1],):
            raise ConfigurationError("weights must match the series length")
        inc = inc * w
    return np.cumsum(inc, axis=-1)


def _check_order(order) -> None:
    if not (is_integer(order) and order >= 0):
        raise ConfigurationError(f"order must be an integer >= 0, got {order!r}")


def signature_length(dim: int, order: int) -> int:
    """Number of flattened signature entries, level 0 included."""
    _check_order(order)
    if dim == 1:
        return order + 1
    return (dim ** (order + 1) - 1) // (dim - 1)


def trajectory_signature(traj_array: np.ndarray, order: int = 5) -> np.ndarray:
    """Flattened signature of one (n, dim) trajectory with n >= 1, such as an
    (n, 2) I-Q path: :func:`batch_signature` on a batch of one."""
    pts = np.asarray(traj_array, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ConfigurationError("trajectory_signature expects an (n, dim) point array")
    return batch_signature(pts[None], order)[0]


def batch_signature(paths: np.ndarray, order: int) -> np.ndarray:
    """Flattened signatures of many paths at once.

    ``paths`` is (batch, n, dim) with n >= 1; the result is a C-contiguous
    (batch, signature_length) array.  Inside, the batch is the last axis:
    the levels are consecutive row blocks of one (signature_length, batch)
    array, level k a (dim**k, batch) block whose rows follow the C-order
    flattening of the tensor, and each step's increment is (dim, batch).
    A tensor product is then an outer product over the first axis whose
    innermost loop runs over the whole batch, so every elementwise call in
    a step is one contiguous pass over the paths rather than many passes
    of length dim.  The points are read through a transposed view, and
    the result is transposed once on exit.

    Appending a step with displacement ``d`` multiplies the signature by
    the segment's tensor exponential ``sum_j d^(tensor j) / j!``.  Level k
    of that product is computed by Horner's scheme (Kidger & Lyons,
    *Signatory*, ICLR 2021), from the top level down so that the lower
    levels still hold their old values::

        B = d/k;  for i in 1..k-1:  B = (B + S_i) (x) d/(k-i);  S_k += B

    Each path's entries are computed elementwise, without BLAS, so its
    signature has the same bytes alone or in any batch.  Order <= 1 gives the bytes of a
    separate exponential and Chen product; above that the rounding
    differs, and level k stays within ``k (n-1) eps L^k / k!`` of it, where
    ``L`` is the path's 1-norm length and ``L^k / k!`` bounds the level.
    """
    pts = np.asarray(paths, dtype=float)
    if pts.ndim != 3 or pts.shape[1] < 1:
        raise ConfigurationError("batch_signature expects (batch, n, dim) with n >= 1")
    _check_order(order)
    nb, n, dim = pts.shape
    pts = pts.transpose(1, 2, 0)  # (n, dim, batch), a view

    flat = np.zeros((signature_length(dim, order), nb))
    flat[0] = 1.0
    sig = np.split(flat, np.cumsum([dim**k for k in range(order + 1)])[:-1])  # level views
    buf = [None] + [np.empty((dim**k, nb)) for k in range(1, order + 1)]
    delta = np.empty((dim, nb))
    scaled = [None] + [np.empty((dim, nb)) for _ in range(order)]  # delta / j
    for step in range(1, n):
        np.subtract(pts[step], pts[step - 1], out=delta)
        for j in range(1, order + 1):
            np.divide(delta, j, out=scaled[j])
        for k in range(order, 0, -1):
            b = scaled[k]
            for i in range(1, k):
                np.add(b, sig[i], out=buf[i])
                b = buf[i + 1]
                outer = b.reshape(dim**i, dim, nb)
                np.multiply(buf[i][:, None, :], scaled[k - i][None, :, :], out=outer)
            sig[k] += b
    return np.ascontiguousarray(flat.T)
