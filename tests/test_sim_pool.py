"""Generation in worker processes gives the bytes of in-process generation.

The pool runs only above ``sim.POOL_MIN_SAMPLES`` and with more than one
usable CPU, so these tests lower the threshold and set the worker count.
One worker renders every row in-process; more split the rows into
contiguous shares, the caller rendering the last and each forked worker
another, each from its own replay of the scan.  Every test also checks
that no worker outlives the call.  The front end's threads
(``pipeline.preprocess_batch``) may be alive when a render pool forks, and
a process forked after them makes its own.
"""

import hashlib
import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from readoutkit import SimConfig, generate_dataset, normalize_descriptor, preprocess_batch
from readoutkit import shot_rng, standard_pipelines, synthesize_shot
from readoutkit.errors import DataError
from readoutkit import pipeline, sim

# the benchmark's ingest physics on short traces: phase noise takes the
# per-shot random walk, and heralding makes the scan reject attempts
INGEST_PHYSICS = dict(duration=200.0, phase_noise_sigma=0.002, herald_error=0.05, seed=5)


@pytest.fixture
def workers(monkeypatch):
    """Force the pool at any size; returns a setter for the worker count."""
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 0)

    def set_count(count):
        monkeypatch.setattr(sim, "_pool_workers", lambda: count)

    return set_count


def _columns(ds):
    return (
        np.stack([s.samples for s in ds.shots]).tobytes(),
        [s.label for s in ds.shots],
        [s.herald_pass for s in ds.shots],
        [s.shot_id for s in ds.shots],
        [s.true_path for s in ds.shots],
    )


def _share_bounds(rows, count):
    return [rows * k // count for k in range(1, count)]


@pytest.mark.parametrize(
    "physics, shots",
    [
        pytest.param("ingest", 300, id="ingest"),
        pytest.param("decaying", 300, id="decaying"),
        pytest.param("ingest", 301, id="ingest-uneven-shares"),
    ],
)
def test_dataset_bytes_do_not_depend_on_worker_count(workers, decaying_config, physics, shots):
    cfg = SimConfig(**INGEST_PHYSICS) if physics == "ingest" else decaying_config
    counts = (1, 2, 3, 7)
    runs = {}
    for count in counts:
        workers(count)
        runs[count] = _columns(generate_dataset(cfg, shots))
        assert multiprocessing.active_children() == []
    assert all(runs[count] == runs[1] for count in counts)
    ids, paths = runs[1][3], runs[1][4]
    bounds = {b for count in counts for b in _share_bounds(3 * shots, count)}
    assert any(b % shots for b in bounds)  # a share starts inside a state
    if physics == "ingest":
        assert ids[-1] + 1 > len(ids)  # the scan rejected some attempts
        if shots == 301:
            # a share starts right after rejected attempts
            assert any(ids[b] - ids[b - 1] > 1 for b in bounds)
    else:
        assert any(path.has_transition for path in paths)


def test_pooled_shots_equal_synthesize_shot(workers):
    workers(2)
    cfg = SimConfig(**INGEST_PHYSICS)
    ds = generate_dataset(cfg, 40)
    for shot in ds.shots[::7]:
        rng = shot_rng(cfg.seed, shot.shot_id)
        path = sim.sample_state_path(shot.label, cfg, rng)
        assert path == shot.true_path
        again = synthesize_shot(path, cfg, rng, shot_id=shot.shot_id)
        assert again.samples.tobytes() == shot.samples.tobytes()
        assert again.herald_pass and again.label == shot.label


def test_pooled_samples_are_rows_of_one_block(workers):
    workers(2)
    ds = generate_dataset(SimConfig(**INGEST_PHYSICS), 20)
    base = ds.shots[0].samples.base
    assert base is not None and all(s.samples.base is base for s in ds.shots)
    assert all(s.samples.dtype == np.float32 and s.samples.flags.writeable for s in ds.shots)


def test_herald_limit_leaves_no_worker(workers):
    workers(3)  # every process's scan gives up
    cfg = replace(SimConfig(**INGEST_PHYSICS), herald_error=0.995)
    with pytest.raises(DataError, match="herald rejection rate"):
        generate_dataset(cfg, 20)
    assert multiprocessing.active_children() == []


def _fail_in(where, monkeypatch):
    """Make rendering raise in the caller only, or in the workers only."""
    caller = os.getpid()
    samples = sim._Renderer.samples

    def render(self, path, rng):
        if (os.getpid() == caller) == (where == "caller"):
            raise FloatingPointError(f"render failed in the {where}")
        return samples(self, path, rng)

    monkeypatch.setattr(sim._Renderer, "samples", render)


def test_worker_exception_reaches_the_caller(workers, monkeypatch):
    workers(2)
    _fail_in("worker", monkeypatch)
    with pytest.raises(FloatingPointError, match="render failed in the worker"):
        generate_dataset(SimConfig(**INGEST_PHYSICS), 300)
    assert multiprocessing.active_children() == []


def test_caller_exception_leaves_no_worker(workers, monkeypatch):
    workers(3)
    _fail_in("caller", monkeypatch)
    with pytest.raises(FloatingPointError, match="render failed in the caller"):
        generate_dataset(SimConfig(**INGEST_PHYSICS), 300)
    assert multiprocessing.active_children() == []


def test_no_pool_without_affinity_call_or_in_a_daemon(monkeypatch):
    class Daemon:
        daemon = True

    with monkeypatch.context() as m:
        m.setattr(sim.multiprocessing, "current_process", Daemon)
        assert sim._pool_workers() == 1
    monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
    assert sim._pool_workers() == 1


def test_pool_runs_only_from_the_sample_threshold(monkeypatch):
    pooled = []

    def pool(max_workers, **kwargs):
        pooled.append(max_workers)
        raise FloatingPointError("pooled")

    monkeypatch.setattr(sim, "_pool_workers", lambda: 3)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", pool)
    cfg = SimConfig(**INGEST_PHYSICS)  # 400 samples per shot
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 3 * 10 * 400 + 1)
    assert len(generate_dataset(cfg, 10)) == 30
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 3 * 10 * 400)
    with pytest.raises(FloatingPointError):
        generate_dataset(cfg, 10)
    # the caller renders the last share
    assert pooled == [2]
    # no more processes than rows
    monkeypatch.setattr(sim, "_pool_workers", lambda: 8)
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 0)
    with pytest.raises(FloatingPointError):
        generate_dataset(cfg, 2)
    assert pooled == [2, 5]


def _front_end_digest(shots, stages, parent, conn):
    """In a forked child: preprocess, then send the rows' digest, whether
    the child's front-end pool is the one cached under its parent's pid,
    and whether the child has front-end threads of its own."""
    arr = preprocess_batch(shots, stages)
    own = pipeline._front_end_pool(os.getpid())[1]
    inherited = own is pipeline._front_end_pool(parent)[1]
    threads = any(t.name.startswith("readoutkit-front-end") for t in threading.enumerate())
    conn.send((hashlib.sha256(arr.tobytes()).hexdigest(), inherited, threads))
    conn.close()


def test_forks_after_front_end_threads(workers, front_end_threads):
    cfg = SimConfig(**INGEST_PHYSICS)
    workers(1)
    alone = _columns(generate_dataset(cfg, 300))

    # 900 shots make 4 blocks of 2 slices each, the second on a thread
    front_end_threads(2)
    shots = generate_dataset(SimConfig(seed=0), 300).shots
    stages = normalize_descriptor(standard_pipelines()["bandpass_lstm"])["stages"]
    rows = preprocess_batch(shots, stages)
    assert any(t.name.startswith("readoutkit-front-end") for t in threading.enumerate())

    workers(2)
    assert _columns(generate_dataset(cfg, 300)) == alone
    assert multiprocessing.active_children() == []

    # a child reusing the parent's pool would wait forever on its threads
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe(duplex=False)
    args = (shots, stages, os.getpid(), there)
    child = ctx.Process(target=_front_end_digest, args=args, daemon=True)
    child.start()
    there.close()
    try:
        assert here.poll(60), "the forked child gave no rows"
        digest, inherited, threads = here.recv()
        child.join(10)
    finally:
        child.kill()
    assert child.exitcode == 0
    assert not inherited and threads
    assert digest == hashlib.sha256(rows.tobytes()).hexdigest()
