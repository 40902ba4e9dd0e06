import math

import numpy as np
import pytest

from readoutkit import (
    ConfigurationError,
    SimConfig,
    StatePath,
    generate_dataset,
    regenerate_paths,
    sample_state_path,
    shot_rng,
    synthesize_shot,
)
from readoutkit.errors import DataError
from readoutkit.sim import _Renderer, decay_statistics


def test_config_defaults_are_valid():
    cfg = SimConfig()  # a config is checked when it is built
    assert cfg.n_samples == 2000
    assert cfg.dt == 0.5


def test_config_sample_count_follows_duration():
    cfg = SimConfig(duration=750.0, sample_rate=2.0)
    assert cfg.n_samples == 1500


@pytest.mark.parametrize(
    "field,value",
    [
        ("duration", 0.0),
        ("sample_rate", -1.0),
        ("f_if", 1.0),
        ("f_if", -0.1),
        ("gamma_up", -0.1),
        ("noise_sigma", -1.0),
        ("phase_noise_sigma", -0.5),
        ("herald_error", 1.0),
        ("ring_time", -2.0),
        ("t1", (0.0, 100.0)),
        ("t1", (100.0,)),
        ("state_envelopes", ((1.0, 0.0), (1.0, 1.0))),
    ],
)
def test_config_validation_rejects(field, value):
    with pytest.raises(ConfigurationError):
        SimConfig.from_dict({**SimConfig().to_dict(), field: value})


def test_config_json_roundtrip():
    cfg = SimConfig(t1=(None, 5000.0), noise_sigma=3.5, seed=42)
    again = SimConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_state_path_tiling_invariants():
    cfg = SimConfig(duration=500.0, t1=(50.0, 40.0), gamma_up=1e-3, seed=0)
    for k in range(200):
        rng = shot_rng(123, k)
        path = sample_state_path(k % 3, cfg, rng)
        segs = path.segments
        assert segs[0][1] == 0.0
        assert segs[-1][2] == cfg.duration
        for (s0, a0, b0), (s1, a1, b1) in zip(segs, segs[1:]):
            assert b0 == a1
            assert s0 != s1
        for s, a, b in segs:
            assert 0 <= s <= 2
            assert b > a


def test_path_without_decay_is_single_segment():
    cfg = SimConfig(t1=(None, None))
    for prepared in (0, 1, 2):
        path = sample_state_path(prepared, cfg, shot_rng(0, prepared))
        assert path.segments == ((prepared, 0.0, cfg.duration),)
        assert not path.has_transition


def test_ground_state_is_stable_without_excitation():
    cfg = SimConfig(t1=(100.0, 80.0), gamma_up=0.0)
    for k in range(50):
        path = sample_state_path(0, cfg, shot_rng(7, k))
        assert path.segments == ((0, 0.0, cfg.duration),)


def test_cascade_steps_down_one_state_at_a_time():
    cfg = SimConfig(duration=4000.0, t1=(200.0, 150.0))
    saw_two_step = False
    for k in range(300):
        path = sample_state_path(2, cfg, shot_rng(99, k))
        states = [s for s, _, _ in path.segments]
        for s0, s1 in zip(states, states[1:]):
            assert s1 == s0 - 1
        if states[-1] == 0:
            saw_two_step = True
    assert saw_two_step


def test_upward_excitation_reachable():
    cfg = SimConfig(duration=3000.0, t1=(None, None), gamma_up=1e-3)
    saw_up = False
    for k in range(100):
        path = sample_state_path(0, cfg, shot_rng(5, k))
        if path.has_transition:
            saw_up = True
            assert path.segments[1][0] == 1
    assert saw_up


def test_decay_fraction_matches_exponential_law():
    t1 = 800.0
    cfg = SimConfig(duration=400.0, t1=(t1, None), noise_sigma=0.0)
    n = 4000
    decayed = 0
    for k in range(n):
        if sample_state_path(1, cfg, shot_rng(21, k)).has_transition:
            decayed += 1
    expected = 1.0 - math.exp(-cfg.duration / t1)
    tol = 3.0 * math.sqrt(expected * (1.0 - expected) / n)
    assert abs(decayed / n - expected) < tol


def test_envelope_ring_up_matches_first_order_law():
    cfg = SimConfig(
        duration=300.0, ring_time=40.0, noise_sigma=0.0, t1=(None, None)
    )
    path = StatePath(((1, 0.0, cfg.duration),))
    env = _Renderer(cfg).envelope(path)
    amp, phase = cfg.state_envelopes[1]
    target = amp * np.exp(1j * phase)
    t = np.arange(cfg.n_samples) * cfg.dt
    expected = target * (1.0 - np.exp(-t / cfg.ring_time))
    assert np.allclose(env, expected, atol=1e-12)


def test_envelope_instant_when_ring_time_zero():
    cfg = SimConfig(duration=100.0, ring_time=0.0, t1=(None, None))
    path = StatePath(((2, 0.0, cfg.duration),))
    env = _Renderer(cfg).envelope(path)
    amp, phase = cfg.state_envelopes[2]
    assert np.allclose(env, amp * np.exp(1j * phase), atol=1e-15)


def test_envelope_continuous_across_transition():
    cfg = SimConfig(duration=200.0, ring_time=30.0, t1=(None, None))
    path = StatePath(((1, 0.0, 100.3), (0, 100.3, cfg.duration)))
    env = _Renderer(cfg).envelope(path)
    # no jumps bigger than a plausible one-sample slope bound
    steps = np.abs(np.diff(env))
    assert steps.max() < 2.0 * cfg.dt / cfg.ring_time


def test_noiseless_shot_is_modulated_envelope():
    cfg = SimConfig(
        duration=250.0, noise_sigma=0.0, t1=(None, None), ring_time=25.0
    )
    path = sample_state_path(2, cfg, shot_rng(1, 0))
    shot = synthesize_shot(path, cfg, shot_rng(1, 0), shot_id=0)
    env = _Renderer(cfg).envelope(path)
    t = np.arange(cfg.n_samples) * cfg.dt
    expected = np.real(env * np.exp(2j * np.pi * cfg.f_if * t))
    assert np.allclose(shot.samples, expected.astype(np.float32), atol=1e-6)


def test_shot_noise_statistics():
    cfg = SimConfig(
        duration=500.0, noise_sigma=3.0, t1=(None, None), state_envelopes=((0.0, 0.0),) * 3
    )
    path = sample_state_path(0, cfg, shot_rng(2, 0))
    shot = synthesize_shot(path, cfg, shot_rng(2, 0))
    s = np.asarray(shot.samples, dtype=float)
    assert abs(s.std() - cfg.noise_sigma) < 0.2
    assert abs(s.mean()) < 0.5


def test_generate_dataset_counts_and_labels():
    cfg = SimConfig(duration=100.0, noise_sigma=1.0, seed=3)
    ds = generate_dataset(cfg, shots_per_state=20)
    assert len(ds) == 60
    assert ds.counts() == {0: 20, 1: 20, 2: 20}
    for shot in ds:
        assert shot.true_path is not None
        assert shot.true_path.initial_state == shot.label
        assert shot.samples.dtype == np.float32
        assert shot.sample_rate == cfg.sample_rate


def test_generate_dataset_deterministic():
    cfg = SimConfig(duration=150.0, seed=9, t1=(300.0, 250.0))
    a = generate_dataset(cfg, shots_per_state=15)
    b = generate_dataset(cfg, shots_per_state=15)
    for sa, sb in zip(a.shots, b.shots):
        assert sa.label == sb.label
        assert sa.shot_id == sb.shot_id
        assert np.array_equal(sa.samples, sb.samples)


def test_seed_changes_data():
    cfg_a = SimConfig(duration=100.0, seed=1)
    cfg_b = SimConfig(duration=100.0, seed=2)
    a = generate_dataset(cfg_a, shots_per_state=5)
    b = generate_dataset(cfg_b, shots_per_state=5)
    assert not np.array_equal(a.shots[0].samples, b.shots[0].samples)


def test_herald_rejection_keeps_counts_exact():
    cfg = SimConfig(duration=100.0, herald_error=0.4, seed=17)
    ds = generate_dataset(cfg, shots_per_state=25)
    assert len(ds) == 75
    assert all(s.herald_pass for s in ds.shots)
    # rejected attempts leave gaps in the retained shot ids
    ids = [s.shot_id for s in ds.shots]
    assert len(set(ids)) == len(ids)
    assert max(ids) >= len(ids)


def test_herald_rejection_changes_retained_set():
    base = SimConfig(duration=100.0, seed=17)
    ds_clean = generate_dataset(base, shots_per_state=25)
    cfg = SimConfig.from_dict({**base.to_dict(), "herald_error": 0.4})
    ds_herald = generate_dataset(cfg, shots_per_state=25)
    ids_clean = [s.shot_id for s in ds_clean.shots]
    ids_herald = [s.shot_id for s in ds_herald.shots]
    assert ids_clean != ids_herald


def test_regenerate_paths_matches_dataset():
    cfg = SimConfig(duration=200.0, t1=(150.0, 120.0), seed=23, herald_error=0.2)
    ds = generate_dataset(cfg, shots_per_state=12)
    paths = regenerate_paths(cfg, 12)
    assert len(paths) == len(ds)
    for shot, path in zip(ds.shots, paths):
        assert shot.true_path.segments == path.segments


def test_phase_noise_perturbs_trace():
    base = SimConfig(duration=100.0, noise_sigma=0.0, t1=(None, None), seed=4)
    noisy = SimConfig.from_dict({**base.to_dict(), "phase_noise_sigma": 0.05})
    a = generate_dataset(base, shots_per_state=2)
    b = generate_dataset(noisy, shots_per_state=2)
    assert not np.allclose(a.shots[0].samples, b.shots[0].samples)


def test_decay_statistics_reports_fractions(decaying_dataset):
    stats = decay_statistics(decaying_dataset)
    assert stats[0] == 0.0
    assert 0.0 < stats[1] < 1.0
    assert 0.0 < stats[2] < 1.0


@pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, True, "3", None])
def test_shot_count_must_be_an_integer_of_at_least_one(count):
    cfg = SimConfig(duration=20.0)
    with pytest.raises(ConfigurationError, match="shots_per_state must be an integer >= 1"):
        generate_dataset(cfg, count)
    with pytest.raises(ConfigurationError, match="shots_per_state must be an integer >= 1"):
        regenerate_paths(cfg, count)


def test_shot_count_accepts_numpy_integers():
    cfg = SimConfig(duration=20.0)
    ds = generate_dataset(cfg, np.int64(2))
    assert len(ds) == 6
    assert regenerate_paths(cfg, np.int64(2), ds.shots) == [s.true_path for s in ds.shots]


def test_rejects_absurd_dataset_request():
    cfg = SimConfig()
    with pytest.raises(DataError):
        generate_dataset(cfg, shots_per_state=10**9)


def test_rejects_bad_prepared_state():
    cfg = SimConfig()
    with pytest.raises(ConfigurationError):
        sample_state_path(3, cfg, shot_rng(0, 0))
