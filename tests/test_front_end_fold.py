"""The bandpass-led front end evaluated per in-band DFT bin.

The oracle is the per-sample chain the pipeline ran before: a full complex
FFT, the brick-wall mask, a complex inverse FFT, then demodulate, bin
and integrate sample by sample.  The fold sums the same
linear map over the in-band coefficients, so it agrees to rounding; a
stage list without a bandpass still runs the per-sample chain and matches
the oracle byte for byte.  The front end's row slices on threads give
the bytes of one slice per block, at any worker count.
"""

import copy
import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from readoutkit import (
    ConfigurationError,
    DataError,
    SimConfig,
    TrainedPipeline,
    canonical_json,
    generate_dataset,
    normalize_descriptor,
    preprocess_batch,
    standard_pipelines,
    train_pipeline,
)
from readoutkit import pipeline
from readoutkit.dsp import band_bins
from readoutkit.pipeline import _band_response, apply_stages

SRC = Path(__file__).resolve().parents[1] / "src"


def oracle_stages(samples, rate, stages):
    """The per-sample stage chain with the complex-FFT bandpass."""
    x = np.asarray(samples, dtype=float)
    i = q = None
    for st in stages:
        op = st["op"]
        if op == "bandpass":
            coeffs = np.fft.fft(x, axis=-1)
            freqs = np.fft.fftfreq(x.shape[-1], d=1.0 / rate)
            keep = np.abs(np.abs(freqs) - st["center"]) <= st["half_width"]
            x = np.real(np.fft.ifft(coeffs * keep, axis=-1))
        elif op == "demodulate":
            ph = 2.0 * np.pi * st["frequency"] * (np.arange(x.shape[-1]) / rate)
            i = 2.0 * x * np.cos(ph)
            q = -2.0 * x * np.sin(ph)
        elif op == "bin":
            size = st["size"]
            steps = i.shape[-1] // size
            i = i[..., : steps * size].reshape(i.shape[:-1] + (steps, size)).mean(axis=-1)
            q = q[..., : steps * size].reshape(q.shape[:-1] + (steps, size)).mean(axis=-1)
        elif op == "integrate":
            i = i.mean(axis=-1)
            q = q.mean(axis=-1)
    return np.stack([i, q], axis=-1)


def relative_error(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def bp(center=0.1, half_width=0.005):
    return {"op": "bandpass", "center": center, "half_width": half_width}


def demod(frequency=0.1):
    return {"op": "demodulate", "frequency": frequency}


def band_response(stages, n=2000, rate=2.0):
    return _band_response(canonical_json(stages), n, rate)


@pytest.fixture(scope="module")
def shots():
    return generate_dataset(SimConfig(seed=0), shots_per_state=20).shots


@pytest.fixture(scope="module")
def block(shots):
    return np.stack([s.samples for s in shots]).astype(float)


@pytest.mark.parametrize("name", ["bandpass_lstm", "signature_dense"])
def test_stock_pipelines_match_oracle(block, name):
    stages = normalize_descriptor(standard_pipelines()[name])["stages"]
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert arr.shape == o_arr.shape == (60, 50, 2)
    assert relative_error(arr, o_arr) < 1e-12


@pytest.mark.parametrize("tail", [[{"op": "integrate"}]], ids=["integrate"])
def test_linear_tails_match_oracle(block, tail):
    stages = [bp(), demod()] + tail
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert arr.shape == o_arr.shape
    assert relative_error(arr, o_arr) < 1e-12


def test_two_bandpass_stages_match_oracle(block):
    stages = [bp(0.1, 0.01), bp(0.104, 0.004), demod(), {"op": "bin", "size": 40}]
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert relative_error(arr, o_arr) < 1e-12


@pytest.mark.parametrize(
    "n,center,half_width",
    [
        (2000, 0.0, 0.003),  # holds the DC bin
        (2000, 1.0, 0.003),  # holds the Nyquist bin (rate 2, even n)
        (1999, 0.1, 0.005),  # odd n: no Nyquist bin
        (1999, 0.9995, 0.003),  # odd n at the top of the band
        (401, 0.25, 0.02),
    ],
)
def test_band_edges_and_odd_lengths_match_oracle(rng, n, center, half_width):
    x = rng.normal(size=(9, n)) + 0.3
    for tail in ([{"op": "bin", "size": 25}], [{"op": "integrate"}]):
        stages = [bp(center, half_width), demod(center)] + tail
        assert band_response(stages, n) is not None
        arr = apply_stages(x, 2.0, stages)
        o_arr = oracle_stages(x, 2.0, stages)
        assert arr.shape == o_arr.shape
        assert relative_error(arr, o_arr) < 1e-12


def test_empty_band_gives_zeros(block):
    # bins lie 0.001 apart at n=2000, rate 2: none is within 1e-4 of 0.1003
    assert band_bins(2000, 2.0, 0.1003, 1e-4).size == 0
    stages = [bp(0.1003, 1e-4), demod(), {"op": "bin", "size": 40}]
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert arr.shape == o_arr.shape == (60, 50, 2)
    assert np.all(arr == 0.0) and np.all(o_arr == 0.0)


@pytest.mark.parametrize("name", ["lstm", "gmm"])
def test_stage_lists_without_bandpass_match_oracle_bytes(block, name):
    stages = normalize_descriptor(standard_pipelines()[name])["stages"]
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert np.array_equal(arr, o_arr)


@pytest.mark.parametrize(
    "tail",
    [
        [],
        [{"op": "integrate"}],
        [{"op": "bin", "size": 40}],
        [{"op": "bin", "size": 40}, {"op": "integrate"}],
    ],
    ids=["demod", "integrate", "bin", "bin-integrate"],
)
def test_one_iq_array_matches_per_channel_bytes(block, tail):
    """The chain carries I and Q as rows of one array; the oracle runs each
    stage on I and on Q apart and stacks them at the end."""
    stages = [demod()] + tail
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert arr.flags.c_contiguous
    assert arr.shape == o_arr.shape
    assert arr.tobytes() == o_arr.tobytes()


@pytest.mark.parametrize(
    "stages",
    [
        normalize_descriptor(standard_pipelines()["bandpass_lstm"])["stages"],
        [bp(), demod(), {"op": "integrate"}],
    ],
    ids=["bandpass_lstm", "integrate"],
)
def test_fold_responses_match_per_channel_bytes(stages):
    """The fold's response table is the rest of the list run on the basis
    tones irfft(e_k) and irfft(1j * e_k), rows 2j and 2j + 1."""
    n = 2000
    bins, response = band_response(stages, n)
    unit = np.zeros((2 * len(bins), n // 2 + 1), dtype=complex)
    unit[0::2][np.arange(len(bins)), bins] = 1.0
    unit[1::2][np.arange(len(bins)), bins] = 1j
    tones = np.fft.irfft(unit, n=n, axis=-1)
    o_response = oracle_stages(tones, 2.0, stages[1:])
    assert response.shape == o_response.shape
    assert response.tobytes() == o_response.tobytes()


@pytest.mark.parametrize("n", [2000, 1999, 400, 7])
def test_band_bins_is_the_complex_dft_keep_rule(n):
    for center, half_width in ((0.1, 0.005), (0.0, 0.01), (1.0, 0.01), (0.3, 0.3)):
        freqs = np.fft.fftfreq(n, d=0.5)
        keep = np.abs(np.abs(freqs) - center) <= half_width
        bins = band_bins(n, 2.0, center, half_width)
        assert np.array_equal(bins, np.flatnonzero(keep[: n // 2 + 1]))


def test_band_bins_rejects_negative_width():
    with pytest.raises(ConfigurationError):
        band_bins(100, 2.0, 0.1, -0.01)


def test_bandpass_without_demodulate_still_rejected(block):
    with pytest.raises(ConfigurationError):
        apply_stages(block, 2.0, [bp()])


@pytest.mark.parametrize(
    "stages,folds",
    [
        (normalize_descriptor(standard_pipelines()["bandpass_lstm"])["stages"], True),
        ([bp(), demod(), {"op": "integrate"}], True),
        ([bp(0.1, 0.02), demod(), {"op": "bin", "size": 40}], True),
        # 20 coefficients times 4000 outputs: more than the per-sample chain
        ([bp(), demod()], False),
        ([bp(0.1, 0.05), demod(), {"op": "bin", "size": 40}], False),
    ],
)
def test_fold_runs_where_it_is_cheaper(block, stages, folds):
    assert (band_response(stages) is not None) == folds
    arr = apply_stages(block, 2.0, stages)
    o_arr = oracle_stages(block, 2.0, stages)
    assert relative_error(arr, o_arr) < 1e-12


@pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(37, 38)], ids=["block", "row0", "row37"])
def test_fold_sums_coefficients_in_index_order(block, rows):
    # a lone shot's fold is one reduce over the terms, a block's a running
    # sum: both must give the bytes of this explicit loop
    block = block[rows]
    stages = normalize_descriptor(standard_pipelines()["bandpass_lstm"])["stages"]
    bins, response = band_response(stages)
    assert not response.flags.writeable
    assert response.shape == (2 * len(bins), 50, 2)
    coeffs = np.fft.rfft(block, axis=-1)[:, bins]
    terms = np.stack([coeffs.real, coeffs.imag], axis=-1).reshape(len(block), -1)
    acc = terms[:, 0, None, None] * response[0]
    for j in range(1, len(response)):
        acc = acc + terms[:, j, None, None] * response[j]
    arr = apply_stages(block, 2.0, stages)
    assert arr.tobytes() == acc.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 256, 512])
def test_single_shot_equals_its_row_in_any_chunk(chunk):
    shots = generate_dataset(SimConfig(seed=3), shots_per_state=174).shots[:520]
    for name in ("bandpass_lstm", "gmm"):
        stages = normalize_descriptor(standard_pipelines()[name])["stages"]
        if name == "gmm":
            stages = [bp()] + stages
        parts = [preprocess_batch(shots[s : s + chunk], stages) for s in range(0, 520, chunk)]
        batch = np.concatenate(parts)
        for k in (0, 1, 6, 7, 300, 511, 519):
            alone = apply_stages(shots[k].samples[None], 2.0, stages)
            assert alone[0].tobytes() == batch[k].tobytes()


def test_an_edited_stage_list_cannot_get_the_old_response(shots, block):
    # the response is cached by the stage list's canonical JSON, worked out
    # on every call, for a plain list and a pipeline's descriptor alike
    stages = [bp(0.1, 0.005), demod(), {"op": "bin", "size": 40}]
    first = apply_stages(block, 2.0, stages)
    stages[0]["half_width"] = 0.02
    edited = apply_stages(block, 2.0, stages)
    assert edited.tobytes() != first.tobytes()
    assert relative_error(edited, oracle_stages(block, 2.0, stages)) < 1e-12

    desc = {
        "stages": [bp(0.1, 0.005), demod(), {"op": "bin", "size": 40}],
        "model": {"kind": "lstm", "hidden": [4]},
        "train": {"epochs": 1, "seed": 0},
    }
    fitted = train_pipeline(shots, desc)
    before = fitted.predict_proba(shots)
    fitted.descriptor["stages"][0]["half_width"] = 0.02
    after = fitted.predict_proba(shots)
    fresh = TrainedPipeline(
        copy.deepcopy(fitted.descriptor), fitted.model, fitted.input_length, fitted.sample_rate
    )
    assert after.tobytes() == fresh.predict_proba(shots).tobytes()
    assert after.tobytes() != before.tobytes()


_THREAD_PROBE = """
import hashlib
import readoutkit as rk
shots = rk.generate_dataset(rk.SimConfig(seed=5), shots_per_state=200).shots
stages = rk.normalize_descriptor(rk.standard_pipelines()["bandpass_lstm"])["stages"]
arr = rk.preprocess_batch(shots, stages)
print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


def test_preprocessed_bytes_do_not_depend_on_thread_count():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def shots600():
    return generate_dataset(SimConfig(seed=0), shots_per_state=200).shots


def stock_stages(name):
    return normalize_descriptor(standard_pipelines()[name])["stages"]


@pytest.mark.parametrize(
    "stages",
    [
        stock_stages("gmm"),
        stock_stages("lstm"),
        stock_stages("bandpass_lstm"),
        [bp(0.1, 0.05), demod(), {"op": "bin", "size": 40}],
    ],
    ids=["gmm", "lstm", "bandpass_lstm", "wide-band-per-sample"],
)
def test_front_end_bytes_do_not_depend_on_the_worker_count(front_end_threads, shots600, stages):
    # the wide band runs the per-sample chain (test_fold_runs_where_it_is_cheaper)
    front_end_threads(1)
    whole = preprocess_batch(shots600, stages)
    for count in (1, 2, 3):
        front_end_threads(count)
        for m in (1, 2, 127, 128, 129, 255, 256, 257, 600):
            arr = preprocess_batch(shots600[:m], stages)
            assert arr.tobytes() == whole[:m].tobytes(), (count, m)


def _with_nan(shots, *rows):
    shots = list(shots)
    for k in rows:
        samples = shots[k].samples.copy()
        samples[17] = np.nan
        shots[k] = replace(shots[k], samples=samples)
    return shots


def test_first_bad_shot_is_named_and_no_slice_outlives_the_call(
    front_end_threads, monkeypatch, shots600
):
    """Two slices per block: rows 0-127 on the caller, 128-255 on a thread,
    and so on.  One side's slices are held back: the threads', so a call
    whose caller slice fails must wait for them, or the caller's, so a
    thread's error comes first in time but not in shot order."""
    stages = stock_stages("bandpass_lstm")
    front_end_threads(1)
    good = preprocess_batch(shots600, stages)
    front_end_threads(2)
    real, lock = pipeline._stage_rows, threading.Lock()
    running, ran_on, slow_caller = [0], set(), [False]

    def held(shots, rows, rate, stages):
        with lock:
            running[0] += 1
            ran_on.add(threading.current_thread().name)
        try:
            if (rows.start % 256 == 0) == slow_caller[0]:
                time.sleep(0.05)
            return real(shots, rows, rate, stages)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(pipeline, "_stage_rows", held)
    cases = (((100, 400), 100, False), ((100, 200), 100, True), ((200,), 200, False))
    for bad, named, slow_caller[0] in cases:
        with pytest.raises(DataError, match=f"shot {named} "):
            preprocess_batch(_with_nan(shots600, *bad), stages)
        assert running[0] == 0
        assert preprocess_batch(shots600, stages).tobytes() == good.tobytes()
    assert len(ran_on) == 2  # the caller and one front-end thread


def test_one_shot_runs_inline_and_the_cpus_are_counted_once(front_end_threads, monkeypatch, shots600):
    stages = stock_stages("bandpass_lstm")
    front_end_threads(2)

    def no_pool(pid):
        raise AssertionError("a one-shot call looked up the front-end threads")

    with monkeypatch.context() as m:
        m.setattr(pipeline, "_front_end_pool", no_pool)
        alone = preprocess_batch(shots600[:1], stages)
    assert alone.tobytes() == apply_stages(shots600[0].samples[None], 2.0, stages).tobytes()

    lookups = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: lookups.append(pid) or {0, 1})
    for m in (2, 300, 600):
        preprocess_batch(shots600[:m], stages)
    assert len(lookups) == 1


def test_no_front_end_threads_without_an_affinity_call(front_end_threads, shots600):
    front_end_threads(None)
    stages = stock_stages("lstm")
    preprocess_batch(shots600[:300], stages)
    assert pipeline._front_end_pool(os.getpid()) == (1, None)
