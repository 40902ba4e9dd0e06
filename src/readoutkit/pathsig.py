"""Path-space features for demodulated trajectories.

Two feature maps live here: a causal weighted-increment transform applied
channel-wise, and truncated path signatures of piecewise-linear paths in
d dimensions.  A linear segment's signature is the truncated tensor
exponential of its displacement, and a path's signature is the
tensor-algebra (Chen) product of its segments'.  :func:`batch_signature`
fuses each step's exponential and product into one Horner update, the
multiply-exponentiate of Kidger & Lyons, *Signatory* (ICLR 2021).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class SignatureVector:
    """Truncated signature as per-level tensors.

    ``levels[k]`` has shape ``(dim,) * k``; level 0 is the scalar 1.
    """

    levels: list[np.ndarray]
    dim: int
    order: int

    def flatten(self) -> np.ndarray:
        """Level-major 1-D layout: level 0, then level 1's dim entries,
        then level 2's dim**2 entries in C order, and so on."""
        return np.concatenate([lvl.reshape(-1) for lvl in self.levels])


def signature(points: np.ndarray, order: int) -> SignatureVector:
    """Truncated signature of the piecewise-linear path through ``points``.

    ``points`` is (n, dim) with n >= 1.  A single point (or coincident
    points) yields the trivial signature (1, 0, 0, ...).  Computed as a
    batch of one by :func:`batch_signature` and split into its levels.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ConfigurationError("signature expects an (n, dim) point array")
    dim = pts.shape[1]
    flat = batch_signature(pts[None], order)[0]
    ends = np.cumsum([dim**k for k in range(order + 1)])
    levels = [lvl.reshape((dim,) * k) for k, lvl in enumerate(np.split(flat, ends[:-1]))]
    return SignatureVector(levels=levels, dim=dim, order=order)


def trajectory_signature(traj_array: np.ndarray, order: int = 5) -> np.ndarray:
    """Flattened signature of an (n, 2) I-Q trajectory."""
    return signature(traj_array, order).flatten()


def batch_signature(paths: np.ndarray, order: int) -> np.ndarray:
    """Flattened signatures of many paths at once.

    ``paths`` is (batch, n, dim) with n >= 1; the result is
    (batch, signature_length).  Level k is kept as a flat dim**k vector
    per path, the C-order flattening of the tensor, so a tensor product
    is a broadcast outer product.

    Appending a step with displacement ``d`` multiplies the signature by
    the segment's tensor exponential ``sum_j d^(tensor j) / j!``.  Level k
    of that product is computed by Horner's scheme (Kidger & Lyons,
    *Signatory*, ICLR 2021), from the top level down so that the lower
    levels still hold their old values::

        B = d/k;  for i in 1..k-1:  B = (B + S_i) (x) d/(k-i);  S_k += B

    Each path's row is computed elementwise, without BLAS, so it has the
    same bytes alone or in any batch.  Order <= 1 gives the bytes of a
    separate exponential and Chen product; above that the rounding
    differs, and level k stays within ``k (n-1) eps L^k / k!`` of it, where
    ``L`` is the path's 1-norm length and ``L^k / k!`` bounds the level.
    """
    pts = np.asarray(paths, dtype=float)
    if pts.ndim != 3 or pts.shape[1] < 1:
        raise ConfigurationError("batch_signature expects (batch, n, dim) with n >= 1")
    _check_order(order)
    nb, n, dim = pts.shape

    sig = [np.ones((nb, 1))] + [np.zeros((nb, dim**k)) for k in range(1, order + 1)]
    buf = [None] + [np.empty((nb, dim**k)) for k in range(1, order + 1)]
    delta = np.empty((nb, dim))
    scaled = [None] + [np.empty((nb, dim)) for _ in range(order)]  # delta / j
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
