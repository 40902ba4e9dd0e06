"""One-pass shot synthesis against the two-pass generator, compared byte for byte.

The reference below is the straightforward two-pass form of the generator:
a scan that seeds each attempt's stream, draws its path and herald bit, and
keeps the retained attempt ids; then, for each kept id, a fresh stream, the
same path drawn again, and a trace rendered with its own carrier, state
targets and ring-up.  ``generate_dataset`` and ``regenerate_paths`` must
reproduce its samples, labels, herald flags, shot ids and paths exactly.
"""

import math

import numpy as np
import pytest

from readoutkit import (
    SimConfig,
    generate_dataset,
    regenerate_paths,
    sample_state_path,
    shot_rng,
    synthesize_shot,
)
from readoutkit.sim import STATES, _Renderer


def _reference_envelope(path, cfg, n):
    dt = cfg.dt
    targets = np.array(
        [amp * np.exp(1j * phase) for amp, phase in cfg.state_envelopes], dtype=complex
    )
    env = np.empty(n, dtype=complex)
    if cfg.ring_time == 0.0:
        for state, start, end in path.segments:
            lo = int(math.ceil(start / dt - 1e-12))
            hi = min(int(math.ceil(end / dt - 1e-12)), n)
            env[lo:hi] = targets[state]
        return env
    e = 0.0 + 0.0j
    t_prev = 0.0
    for state, start, end in path.segments:
        target = targets[state]
        lo = int(math.ceil(start / dt - 1e-12))
        hi = min(int(math.ceil(end / dt - 1e-12)), n)
        if lo < hi:
            times = np.arange(lo, hi) * dt
            decay = np.exp(-(times - t_prev) / cfg.ring_time)
            env[lo:hi] = target + (e - target) * decay
        e = target + (e - target) * math.exp(-(end - t_prev) / cfg.ring_time)
        t_prev = end
    return env


def _reference_retained(cfg, shots_per_state):
    out = []
    attempt = 0
    for state in STATES:
        kept = 0
        while kept < shots_per_state:
            rng = shot_rng(cfg.seed, attempt)
            sample_state_path(state, cfg, rng)
            if rng.random() >= cfg.herald_error:
                out.append((attempt, state))
                kept += 1
            attempt += 1
    return out


def _reference_shot(cfg, attempt, state):
    rng = shot_rng(cfg.seed, attempt)
    path = sample_state_path(state, cfg, rng)
    n = cfg.n_samples
    herald_pass = bool(rng.random() >= cfg.herald_error)
    env = _reference_envelope(path, cfg, n)
    t = np.arange(n) * cfg.dt
    phase = 2.0 * np.pi * cfg.f_if * t
    if cfg.phase_noise_sigma > 0.0:
        steps = rng.normal(0.0, cfg.phase_noise_sigma * math.sqrt(cfg.dt), n)
        phase = phase + np.cumsum(steps)
    samples = np.real(env * np.exp(1j * phase))
    if cfg.noise_sigma > 0.0:
        samples = samples + rng.normal(0.0, cfg.noise_sigma, n)
    return samples.astype(np.float32), path.initial_state, herald_pass, attempt, path


CONFIGS = {
    "default": SimConfig(seed=0),
    "phase_noise_herald": SimConfig(seed=5, phase_noise_sigma=0.002, herald_error=0.3),
    "ring_time_0": SimConfig(seed=7, ring_time=0.0, t1=(300.0, 250.0)),
    "gamma_up": SimConfig(seed=9, duration=500.0, t1=(400.0, 300.0), gamma_up=1e-3),
    "no_decay": SimConfig(seed=11, t1=(None, None)),
    "fast_decay_noiseless": SimConfig(
        seed=13, duration=300.0, t1=(30.0, 20.0), noise_sigma=0.0, herald_error=0.1
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_dataset_matches_two_pass_reference(name):
    cfg = CONFIGS[name]
    ds = generate_dataset(cfg, shots_per_state=40)
    ref = [_reference_shot(cfg, a, s) for a, s in _reference_retained(cfg, 40)]
    assert len(ds) == len(ref)
    for shot, (samples, label, herald_pass, shot_id, path) in zip(ds.shots, ref):
        assert shot.samples.dtype == np.float32
        assert shot.samples.tobytes() == samples.tobytes()
        assert shot.label == label
        assert shot.herald_pass == herald_pass
        assert shot.shot_id == shot_id
        assert shot.true_path == path
    # the configs exercise what they are named for
    if name == "phase_noise_herald":
        assert ds.shots[-1].shot_id >= len(ds)
    if name in ("ring_time_0", "gamma_up", "fast_decay_noiseless"):
        assert any(s.true_path.has_transition for s in ds.shots)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_regenerate_paths_matches_two_pass_reference(name):
    cfg = CONFIGS[name]
    paths = regenerate_paths(cfg, 40)
    ref = [_reference_shot(cfg, a, s)[4] for a, s in _reference_retained(cfg, 40)]
    assert paths == ref


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_envelope_matches_reference(name):
    cfg = CONFIGS[name]
    for attempt in range(30):
        path = sample_state_path(attempt % 3, cfg, shot_rng(cfg.seed, attempt))
        got = _Renderer(cfg).envelope(path)
        assert got.tobytes() == _reference_envelope(path, cfg, cfg.n_samples).tobytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synthesize_shot_continues_the_attempt_stream(name):
    cfg = CONFIGS[name]
    ds = generate_dataset(cfg, shots_per_state=5)
    for shot in ds.shots:
        rng = shot_rng(cfg.seed, shot.shot_id)
        path = sample_state_path(shot.label, cfg, rng)
        again = synthesize_shot(path, cfg, rng, shot_id=shot.shot_id)
        assert again.samples.tobytes() == shot.samples.tobytes()
        assert (again.herald_pass, again.true_path) == (shot.herald_pass, shot.true_path)
