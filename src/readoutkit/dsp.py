"""Trace-domain signal processing: demodulation, filtering, binning.

All operations are pure functions over numpy arrays in float64.  Frequencies
are in cycles per nanosecond and rates in samples per nanosecond throughout,
matching the simulator.

The brick-wall keep rule lives in :func:`band_bins`, over the bins of the
real-input DFT (``rfft``).  :func:`bandpass` is the ``irfft`` of the masked
``rfft``.  A pipeline whose first stage is a bandpass does not call it per
shot (unless the band is wide and the output long): every later stage is
linear, so the pipeline evaluates the rest of the chain once per in-band
basis tone and sums those responses, in coefficient index order, against
each shot's in-band ``rfft`` coefficients.  Either way the pipeline's front
end returns one array of I-Q trajectories or points (see
:mod:`readoutkit.pipeline`).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError


def forward_fft(x: np.ndarray) -> np.ndarray:
    """Companion of :func:`inverse_fft`; plain complex DFT along the last
    axis."""
    return np.fft.fft(np.asarray(x, dtype=float), axis=-1)


def inverse_fft(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`forward_fft`, returning the real part."""
    return np.real(np.fft.ifft(coeffs, axis=-1))


def demodulate(samples: np.ndarray, sample_rate: float, f_if: float) -> np.ndarray:
    """Mix real traces down to baseband I/Q at frequency ``f_if``.

    Time runs along the last axis, so a (batch, n) matrix of traces is
    processed in one call.  Returns one array shaped ``(2,) +
    samples.shape``: row 0 is I and row 1 is Q.  The factor 2 makes a
    unit-amplitude tone at ``f_if`` demodulate to (I, Q) = (1, 0) up to the
    double-frequency ripple.  The mixer's ``cos`` and ``sin`` are computed
    once per trace length, rate and frequency and kept (:func:`_mixer`), so
    a call on a few traces costs no more per trace than one on many.
    """
    if sample_rate <= 0:
        raise ConfigurationError("sample_rate must be positive")
    x = np.asarray(samples, dtype=float)
    cos, sin = _mixer(x.shape[-1], sample_rate, f_if)
    iq = np.empty((2,) + x.shape)
    np.multiply(x, 2.0, out=iq[0])
    iq[0] *= cos
    np.multiply(x, -2.0, out=iq[1])
    iq[1] *= sin
    return iq


@functools.lru_cache(maxsize=16)
def _mixer(n: int, sample_rate: float, f_if: float) -> np.ndarray:
    """The read-only (2, n) table of ``cos`` and ``sin`` of the mixer phase
    ``2 pi f_if t`` at the sample times ``t = k / sample_rate``."""
    ph = 2.0 * np.pi * f_if * (np.arange(n) / sample_rate)
    table = np.stack([np.cos(ph), np.sin(ph)])
    table.flags.writeable = False
    return table


def band_bins(n: int, sample_rate: float, center: float, half_width: float) -> np.ndarray:
    """Indices of the ``rfft`` bins of an ``n``-sample trace whose frequency
    lies in ``[center - half_width, center + half_width]``."""
    if half_width < 0:
        raise ConfigurationError("half_width must be >= 0")
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return np.flatnonzero(np.abs(freqs - center) <= half_width)


def bandpass(
    samples: np.ndarray,
    sample_rate: float,
    center: float,
    half_width: float,
) -> np.ndarray:
    """Brick-wall bandpass: zero every DFT bin whose |frequency| falls
    outside ``[center - half_width, center + half_width]``.

    The keep condition depends only on |f|, so a bin and its conjugate
    mirror are kept or dropped together: masking the one-sided ``rfft``
    with :func:`band_bins` and inverting with ``irfft`` is the same filter
    as masking the full complex DFT, and the output is real.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1]
    bins = band_bins(n, sample_rate, center, half_width)
    coeffs = np.fft.rfft(x, axis=-1)
    kept = np.zeros_like(coeffs)
    kept[..., bins] = coeffs[..., bins]
    return np.fft.irfft(kept, n=n, axis=-1)


def bin_average(values: np.ndarray, bin_size: int) -> np.ndarray:
    """Means of consecutive non-overlapping windows along the last axis; a
    trailing partial window is dropped."""
    if bin_size < 1:
        raise ConfigurationError("bin_size must be >= 1")
    x = np.asarray(values, dtype=float)
    n_bins = x.shape[-1] // bin_size
    trimmed = x[..., : n_bins * bin_size]
    return trimmed.reshape(x.shape[:-1] + (n_bins, bin_size)).mean(axis=-1)
