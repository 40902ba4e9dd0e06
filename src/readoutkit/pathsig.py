"""Path-space features for demodulated trajectories.

Two feature maps live here: a causal weighted-increment transform applied
channel-wise, and truncated path signatures of piecewise-linear paths in
d dimensions.  Signatures are computed exactly: each linear segment's
signature is the truncated tensor exponential of its displacement, and
segments are stitched with the tensor-product (Chen) rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


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


def signature_length(dim: int, order: int) -> int:
    """Number of flattened signature entries, level 0 included."""
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

    ``paths`` is (batch, n, dim); the result is (batch, signature_length).
    Each step's segment signature is the truncated tensor exponential of
    its displacement (level k holds ``delta^(tensor k) / k!``), and it is
    appended with the truncated tensor-algebra (Chen) product: level k of
    the product is the sum over splits j of ``sig_j (x) seg_(k-j)``.  Levels
    are kept flat (level k as a dim**k vector per path), which is the
    C-order flattening of the tensor, so the tensor products reduce to
    broadcasted outer products.
    """
    pts = np.asarray(paths, dtype=float)
    if pts.ndim != 3:
        raise ConfigurationError("batch_signature expects (batch, n, dim)")
    if order < 0:
        raise ConfigurationError("order must be >= 0")
    nb, n, dim = pts.shape

    sig = [np.ones((nb, 1))] + [np.zeros((nb, dim**k)) for k in range(1, order + 1)]
    for step in range(1, n):
        delta = pts[:, step] - pts[:, step - 1]
        seg = [np.ones((nb, 1))]
        for k in range(1, order + 1):
            outer = seg[-1][:, :, None] * delta[:, None, :]
            seg.append(outer.reshape(nb, -1) / k)
        new = []
        for k in range(order + 1):
            acc = np.zeros((nb, dim**k))
            for j in range(k + 1):
                prod = sig[j][:, :, None] * seg[k - j][:, None, :]
                acc += prod.reshape(nb, -1)
            new.append(acc)
        sig = new
    return np.concatenate(sig, axis=1)

