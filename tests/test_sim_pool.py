"""Generation in worker processes gives the bytes of in-process generation.

The pool runs only above ``sim.POOL_MIN_SAMPLES`` and with more than one
usable CPU, so these tests lower the threshold and set the worker count.
One worker renders in-process from the scan's live streams; two and three
render in forked workers from shipped stream states.  Every test also
checks that no worker outlives the call.  The front end's threads
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
    """Force the pool at any size, in tasks of 64 shots so that small
    datasets still make several; returns a setter for the worker count."""
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 0)
    monkeypatch.setattr(sim, "_POOL_CHUNK", 64)

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


@pytest.mark.parametrize("physics", ["ingest", "decaying"])
def test_dataset_bytes_do_not_depend_on_worker_count(workers, decaying_config, physics):
    cfg = SimConfig(**INGEST_PHYSICS) if physics == "ingest" else decaying_config
    # 3 x 300 rows: state boundaries fall inside tasks
    runs = {}
    for count in (1, 2, 3):
        workers(count)
        runs[count] = _columns(generate_dataset(cfg, 300))
        assert multiprocessing.active_children() == []
    assert runs[1] == runs[2] == runs[3]
    ids, paths = runs[1][3], runs[1][4]
    if physics == "ingest":
        assert ids[-1] + 1 > len(ids)  # the scan rejected some attempts
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


def test_herald_limit_leaves_no_worker(workers, monkeypatch):
    workers(2)
    monkeypatch.setattr(sim, "_POOL_CHUNK", 2)  # so tasks are out when the scan gives up
    cfg = replace(SimConfig(**INGEST_PHYSICS), herald_error=0.995)
    with pytest.raises(DataError, match="herald rejection rate"):
        generate_dataset(cfg, 20)
    assert multiprocessing.active_children() == []


def test_worker_exception_reaches_the_caller(workers, monkeypatch):
    workers(2)

    def fail(self, path, rng):
        raise FloatingPointError("render failed in a worker")

    monkeypatch.setattr(sim._Renderer, "samples", fail)
    with pytest.raises(FloatingPointError, match="render failed in a worker"):
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

    def render_pooled(render, block, scan, workers):
        pooled.append((block.size, workers))
        raise FloatingPointError("pooled")

    monkeypatch.setattr(sim, "_pool_workers", lambda: 3)
    monkeypatch.setattr(sim, "_render_pooled", render_pooled)
    monkeypatch.setattr(sim, "_POOL_CHUNK", 16)  # 30 shots make 2 tasks, so 2 workers
    cfg = SimConfig(**INGEST_PHYSICS)  # 400 samples per shot
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 3 * 10 * 400 + 1)
    assert len(generate_dataset(cfg, 10)) == 30
    monkeypatch.setattr(sim, "POOL_MIN_SAMPLES", 3 * 10 * 400)
    with pytest.raises(FloatingPointError):
        generate_dataset(cfg, 10)
    assert pooled == [(3 * 10 * 400, 2)]


def _front_end_digest(shots, stages, conn):
    """In a forked child: preprocess, then send the rows' digest and the pid
    the child's front-end pool was made for."""
    arr = preprocess_batch(shots, stages)
    conn.send((hashlib.sha256(arr.tobytes()).hexdigest(), pipeline._front_end[0], os.getpid()))
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
    child = ctx.Process(target=_front_end_digest, args=(shots, stages, there), daemon=True)
    child.start()
    there.close()
    try:
        assert here.poll(60), "the forked child gave no rows"
        digest, pool_pid, child_pid = here.recv()
        child.join(10)
    finally:
        child.kill()
    assert child.exitcode == 0
    assert pool_pid == child_pid != os.getpid()
    assert digest == hashlib.sha256(rows.tobytes()).hexdigest()
