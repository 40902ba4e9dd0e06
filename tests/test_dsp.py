import numpy as np
import pytest

from readoutkit import bandpass, bin_average, demodulate
from readoutkit.dsp import forward_fft, inverse_fft


def tone(freq, rate, n, amp=1.0, phase=0.0):
    t = np.arange(n) / rate
    return amp * np.cos(2.0 * np.pi * freq * t + phase)


def test_demodulate_unit_tone_gives_unit_point():
    # 100 carrier periods in the window: the double-frequency term averages
    # out exactly
    x = tone(0.1, 2.0, 2000)
    i, q = demodulate(x, 2.0, 0.1)
    assert abs(np.mean(i) - 1.0) < 1e-12
    assert abs(np.mean(q)) < 1e-12


@pytest.mark.parametrize("phase", [0.3, -1.2, 2.9])
def test_demodulate_recovers_phase(phase):
    # a tone cos(theta + phase) is the real part of the envelope
    # 1.7 * exp(i * phase) on the carrier
    x = tone(0.1, 2.0, 2000, amp=1.7, phase=phase)
    i, q = demodulate(x, 2.0, 0.1)
    assert abs(np.mean(i) - 1.7 * np.cos(phase)) < 1e-12
    assert abs(np.mean(q) - 1.7 * np.sin(phase)) < 1e-12


def test_demodulate_batch_matches_single(rng):
    block = rng.normal(size=(5, 400))
    batch = demodulate(block, 2.0, 0.07)
    assert batch.shape == (2, 5, 400)
    for k in range(5):
        assert np.array_equal(batch[:, k], demodulate(block[k], 2.0, 0.07))


def test_bin_average_examples():
    assert np.array_equal(bin_average(np.array([1.0, 3.0, 5.0, 7.0]), 2), [2.0, 6.0])
    # trailing partial window is dropped
    assert np.array_equal(bin_average(np.array([1.0, 2.0, 3.0]), 2), [1.5])
    assert bin_average(np.array([4.0]), 2).size == 0


def test_bin_average_batch_rows(rng):
    x = rng.normal(size=(3, 10))
    out = bin_average(x, 4)
    assert out.shape == (3, 2)
    assert np.allclose(out[:, 0], x[:, :4].mean(axis=1))


def test_fft_round_trip(rng):
    for _ in range(20):
        n = int(rng.integers(16, 700))
        x = rng.normal(size=n)
        assert np.allclose(inverse_fft(forward_fft(x)), x, atol=1e-10)


def test_bandpass_preserves_in_band_tone():
    n, rate = 2000, 2.0
    x = tone(0.1, rate, n, amp=2.0, phase=0.7)
    y = bandpass(x, rate, center=0.1, half_width=0.005)
    assert np.max(np.abs(y - x)) < 1e-6 * np.max(np.abs(x))


def test_bandpass_rejects_out_of_band_tone():
    n, rate = 2000, 2.0
    x = tone(0.12, rate, n)
    y = bandpass(x, rate, center=0.1, half_width=0.005)
    assert np.sqrt(np.mean(y**2)) < 1e-6


def test_bandpass_output_is_real_and_linear(rng):
    x = rng.normal(size=512)
    y = bandpass(x, 2.0, 0.2, 0.05)
    assert y.dtype == np.float64
    y2 = bandpass(3.0 * x, 2.0, 0.2, 0.05)
    assert np.allclose(y2, 3.0 * y, atol=1e-12)


def test_bandpass_batch_matches_single(rng):
    block = rng.normal(size=(4, 600))
    out = bandpass(block, 2.0, 0.1, 0.01)
    for k in range(4):
        assert np.allclose(out[k], bandpass(block[k], 2.0, 0.1, 0.01), atol=1e-12)


def test_bandpass_keeps_only_selected_bins(rng):
    n, rate = 400, 2.0
    x = rng.normal(size=n)
    y = bandpass(x, rate, center=0.25, half_width=0.02)
    spec_y = np.fft.fft(y)
    freqs = np.fft.fftfreq(n, d=1.0 / rate)
    outside = np.abs(np.abs(freqs) - 0.25) > 0.02
    assert np.max(np.abs(spec_y[outside])) < 1e-9


def test_trajectory_array_layout(rng):
    # one array, I in row 0 and Q in row 1, each the exact product of the
    # trace with the doubled carrier
    x = rng.normal(size=(3, 50))
    iq = demodulate(x, 2.0, 0.1)
    ph = 2.0 * np.pi * 0.1 * (np.arange(50) / 2.0)
    assert iq.shape == (2, 3, 50)
    assert iq[0].tobytes() == (2.0 * x * np.cos(ph)).tobytes()
    assert iq[1].tobytes() == (-2.0 * x * np.sin(ph)).tobytes()
