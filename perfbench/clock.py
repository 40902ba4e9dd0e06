"""Step timing calibrated against a fixed reference kernel.

The shared machines this benchmark runs on change speed by tens of percent
over seconds and minutes: the same fixed kernel, with no steal time
reported, ran 1.74-2.59 s per 10 repetitions within four minutes on 2
vCPUs of an Intel Xeon at 2.1 GHz, and one training epoch of the headline
workload took 0.81-1.09 s (median per run) across runs minutes apart.  That
drift does not average out within a run, and it alone exceeds any useful
regression bound.  So a workload marks the boundaries of its timed steps
with :meth:`Clock.mark`, which runs a short reference kernel that uses no
readoutkit code.  The reference time is left out of the steps' time, and the
wall time between two marks is scaled by ``REFERENCE_S`` over the mean of
the two references that bound it.  A change to readoutkit moves the steps
but not the reference; a slower machine moves both.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median reference time on the machine above; calibrated times are in
# seconds at that speed.
REFERENCE_S = 0.06


class Clock:
    """Calibrated time and wall time at the last mark, both excluding the
    reference runs.  ``Clock(calibrate=False)`` runs no reference, and its
    calibrated time is the wall time."""

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.refs: list[float] = []
        self.wall = 0.0
        self._calibrated = 0.0
        rng = np.random.default_rng(20260117)
        self._w = rng.normal(size=(16, 64)) / 4.0
        self._h = rng.normal(size=(256, 16))
        self._sig = rng.normal(size=(128, 2000))
        self._last = time.perf_counter()
        if calibrate:
            self._reference()

    def mark(self) -> float:
        """End the current step and return the calibrated time so far."""
        now = time.perf_counter()
        step = now - self._last
        self.wall += step
        if self.calibrate:
            before = self.refs[-1]
            after = self._reference()
            self._calibrated += step * REFERENCE_S / ((before + after) / 2)
            now = time.perf_counter()
        else:
            self._calibrated += step
        self._last = now
        return self._calibrated

    def _reference(self) -> float:
        """Run the reference kernel once: small matmuls with elementwise
        gates (as an LSTM step), an FFT round trip (as the bandpass) and an
        interpreter loop (as per-shot Python work)."""
        gc_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        h = self._h
        for _ in range(900):
            z = h @ self._w
            h = np.tanh(z[:, :16]) * (1.0 / (1.0 + np.exp(-z[:, 16:32])))
        np.fft.ifft(np.fft.fft(self._sig, axis=-1), axis=-1)
        acc = 0
        for i in range(230000):
            acc += i % 7
        elapsed = time.perf_counter() - t0
        if gc_enabled:
            gc.enable()
        self.refs.append(elapsed)
        return elapsed

    def reference_ms(self) -> float:
        """Median reference time so far, in ms (NaN when none ran)."""
        return 1e3 * statistics.median(self.refs) if self.refs else float("nan")
