"""Synthetic dispersive-readout shot generator.

Generates labeled qutrit readout traces at desk scale: a piecewise-constant
state path with exponential relaxation (cascade 2 -> 1 -> 0, optional upward
excitation), a first-order resonator envelope that rings toward the current
state's amplitude/phase target, an intermediate-frequency carrier, additive
white Gaussian ADC noise, and optional phase diffusion.

Every attempt owns an independent random stream derived from
``(seed, attempt_id)``: ``shot_rng``, numpy's ``default_rng([seed,
attempt_id])``.  A retained shot keeps its attempt id as ``shot_id``.
Within a stream the draw order is fixed: the state path, the herald bit,
then (when enabled) the phase-noise steps and the ADC noise.  Generation
makes one pass over the attempts.  The streams' PCG64 start states are
derived ``_SEED_BLOCK`` attempts at a time in one vectorised pass, which
re-implements numpy's seeding (``SeedSequence`` of NEP 19, then PCG64's
two seeding steps) and equals ``shot_rng`` state for state; each is loaded
in turn into one reused generator.  Every attempt id enters that pass as
two uint32 words (low, high): numpy gives an id below 2**32 one word, but
``SeedSequence`` hashes 0 into each of its four pool words that the
entropy leaves empty, so a zero high word gives numpy's state.  An
attempt's path and herald bit are drawn, and a retained shot is rendered
from the same stream, continuing after the herald draw, into its row of
one ``(3 * shots_per_state, n_samples)`` float32 block.  The carrier (without
phase noise), the state targets and the resonator ring-up from an empty
cavity are tabulated once per call and sliced for each shot.  Path
regeneration replays the same scan and renders nothing, so the same
``(cfg, shots_per_state)`` always yields the same bytes and the same paths.

A dataset of at least ``POOL_MIN_SAMPLES`` samples is rendered on every
usable CPU (``os.sched_getaffinity``), with no option: this process scans
the attempts and ships each retained shot's row, path and post-herald
PCG64 ``(state, inc)`` integers (with the generator's buffered-word fields),
in tasks of ``_POOL_CHUNK`` shots, to worker processes forked from it (no
more than there are tasks), which render into the block, an anonymous
shared mapping made before the fork.  A stream continued from its shipped
state draws what the live stream would, so the bytes do not depend on the
worker count.  Smaller datasets (below that, the pool's start-up outweighs
its gain), a single usable CPU, a platform without
``os.sched_getaffinity`` and a daemonic process (which may not have
children) render in this process from the scan's live streams.
"""

from __future__ import annotations

import itertools
import math
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NON_NEGATIVE, POSITIVE, SEED, ConfigurationError, DataError, Field, check
from .errors import is_finite_number, is_integer, is_size

STATES = (0, 1, 2)


def _sequence(v, n: int, test) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == n and all(map(test, v))


# the fields of a SimConfig; the dataclass holds the defaults, and
# __post_init__ checks the rules across fields: a finite sample count of at
# least one, and f_if below Nyquist
SIM_FIELDS = {
    "duration": POSITIVE,
    "sample_rate": POSITIVE,
    "t1": Field(
        lambda v: _sequence(v, 2, lambda t: t is None or POSITIVE.test(t)),
        "a pair [t1 of state 1, t1 of state 2], each a finite number > 0 or null",
    ),
    "gamma_up": NON_NEGATIVE,
    "state_envelopes": Field(
        lambda v: _sequence(v, 3, lambda e: _sequence(e, 2, is_finite_number)),
        "three [amplitude, phase] pairs of finite numbers, for states 0, 1 and 2",
    ),
    "f_if": NON_NEGATIVE,
    "ring_time": NON_NEGATIVE,
    "noise_sigma": NON_NEGATIVE,
    "phase_noise_sigma": NON_NEGATIVE,
    "herald_error": Field(lambda v: is_finite_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "seed": SEED,
}

# In-memory dataset size guard for generate_dataset (float32 samples).
MAX_DATASET_BYTES = 4 << 30
# Datasets of fewer samples (shots x samples per shot) render in-process:
# the pool's start-up costs about as much as it saves at ~3000 shots of the
# default config (2 vCPUs, median of 5: 600 shots 0.065 s in-process and
# 0.114 s pooled, 3000 shots 0.288 and 0.281 s, 6000 shots 0.580 and 0.431 s).
POOL_MIN_SAMPLES = 1 << 23
# retained shots per task shipped to a render worker
_POOL_CHUNK = 256
# attempt ids whose streams the scan seeds in one pass
_SEED_BLOCK = 1024
# numpy's SeedSequence (NEP 19) and PCG64 seeding constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class StatePath:
    """Piecewise-constant state trajectory over the readout window.

    ``segments`` is an ordered tuple of ``(state, start_ns, end_ns)`` tiling
    ``[0, duration]`` with no gaps; consecutive segments differ in state.
    """

    segments: tuple[tuple[int, float, float], ...]

    @property
    def initial_state(self) -> int:
        return self.segments[0][0]

    @property
    def has_transition(self) -> bool:
        return len(self.segments) > 1


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the generative readout model.

    Times are in nanoseconds, frequencies in cycles per nanosecond, and
    amplitudes in arbitrary ADC units.  ``t1`` holds the relaxation times of
    states 1 and 2; ``None`` disables that decay channel entirely (kept as an
    explicit sentinel so serialization stays exact).  ``noise_sigma`` and
    ``t1`` defaults are calibrated so the integration-based Gaussian baseline
    lands in the mid-0.9 fidelity band on the stock benchmark dataset.
    A config is checked when it is built (``ConfigurationError``), so every
    ``SimConfig`` is valid.
    """

    duration: float = 1000.0
    sample_rate: float = 2.0
    t1: tuple[float | None, float | None] = (6000.0, 5000.0)
    gamma_up: float = 0.0
    state_envelopes: tuple[tuple[float, float], ...] = (
        (1.0, 0.0),
        (1.0, 2.0943951023931953),
        (1.0, -2.0943951023931953),
    )
    f_if: float = 0.1
    ring_time: float = 50.0
    noise_sigma: float = 7.0
    phase_noise_sigma: float = 0.0
    herald_error: float = 0.0
    seed: int = 0

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    def __post_init__(self):
        for key, value in check(vars(self), SIM_FIELDS, "config").items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "t1", tuple(self.t1))
        object.__setattr__(self, "state_envelopes", tuple(map(tuple, self.state_envelopes)))
        if not math.isfinite(self.duration * self.sample_rate) or self.n_samples < 1:
            raise ConfigurationError(
                f"duration * sample_rate must give at least one sample and be finite, "
                f"not {self.duration * self.sample_rate}"
            )
        if not self.f_if < self.sample_rate / 2:
            raise ConfigurationError(
                f"f_if={self.f_if} must lie strictly below Nyquist "
                f"({self.sample_rate / 2})"
            )

    def to_dict(self) -> dict:
        """Every field, as plain JSON values (lists for the tuple fields)."""
        d = {key: getattr(self, key) for key in self.__dataclass_fields__}
        d["t1"] = list(self.t1)
        d["state_envelopes"] = [list(e) for e in self.state_envelopes]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Config from a mapping of (some of) the fields, such as its
        :meth:`to_dict` form read back from JSON; defaults for the rest."""
        return cls(**check(d, SIM_FIELDS, "config"))


@dataclass
class RawShot:
    """One digitized readout trace plus its provenance.

    ``samples`` are real ADC values at ``sample_rate`` samples per ns,
    stored float32 to match the on-disk format.  ``true_path`` is simulator
    ground truth; it is never a classifier input and is ``None`` for shots
    loaded from disk without regeneration.
    """

    samples: np.ndarray
    label: int
    herald_pass: bool
    true_path: StatePath | None
    shot_id: int
    sample_rate: float = 2.0


@dataclass
class Dataset:
    """An immutable collection of shots plus the config that produced it."""

    shots: list[RawShot]
    config: SimConfig | None = None

    def __len__(self) -> int:
        return len(self.shots)

    def __iter__(self):
        return iter(self.shots)

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.shots], dtype=np.int64)

    def counts(self) -> dict[int, int]:
        labels = self.labels
        return {s: int(np.sum(labels == s)) for s in STATES}


def shot_format(shots: list[RawShot]) -> tuple[int, float]:
    """``(samples per shot, sample rate)`` of a non-empty shot list;
    ``DataError`` unless every shot has the same."""
    n, rate = len(shots[0].samples), shots[0].sample_rate
    if any(len(s.samples) != n or s.sample_rate != rate for s in shots):
        raise DataError("all shots must share length and rate")
    return n, rate


def shot_rng(seed: int, shot_id: int) -> np.random.Generator:
    """Independent, reproducible stream for one shot."""
    return np.random.default_rng([seed, shot_id])


def _stream_states(seed: int, start: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``shot_rng(seed, id)``, as it stands before
    any draw, for each id in ``[start, start + count)``, within [0, 2**64).

    The ids are derived in one pass: ``SeedSequence([seed, id])`` mixed over
    them as uint32 arrays, then PCG64's seeding steps on Python ints.  Every
    id enters as two words, low then high.  numpy gives an id below 2**32
    one word, but ``SeedSequence`` hashes 0 into each pool word that its
    entropy does not reach, so a zero high word mixes as that one-word id
    does."""
    ids = np.uint64(start) + np.arange(count, dtype=np.uint64)
    # numpy splits the seed into uint32 words, least significant first: one
    # below 2**32, else two
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = [np.full(count, w, np.uint32) for w in seed_words]
    entropy += [ids.astype(np.uint32), (ids >> np.uint64(32)).astype(np.uint32)]
    # a seed below 2**64 and an id take at most the pool's four words
    entropy += [np.zeros(count, np.uint32)] * (_POOL_SIZE - len(entropy))
    shift = np.uint32(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> shift)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    # generate_state(4, uint64): eight words from the cycled pool
    hash_const = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> shift)).astype(np.uint64))
    # paired little-endian: the high and low halves of PCG64's seed, then
    # of its stream selector
    halves = [(words[k] | words[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)]
    out = []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        out.append((state, inc))
    return out


def _load(bit_generator, state: int, inc: int, has_uint32: int = 0, uinteger: int = 0) -> None:
    """Set a PCG64 bit generator to the given stream position."""
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def _transition_rates(state: int, cfg: SimConfig) -> tuple[float, float]:
    """(downward rate, upward rate) in 1/ns for the given state."""
    down = 0.0
    if state in (1, 2):
        t1 = cfg.t1[state - 1]
        if t1 is not None:
            down = 1.0 / t1
    up = cfg.gamma_up if state in (0, 1) else 0.0
    return down, up


def sample_state_path(prepared: int, cfg: SimConfig, rng: np.random.Generator) -> StatePath:
    """Draw a stochastic state path starting in ``prepared``.

    Waiting times in each state are exponential with total rate
    ``1/t1[state] + gamma_up``; the direction of each jump is chosen
    proportionally to the two rates.  The path is truncated at
    ``cfg.duration``.
    """
    if prepared not in STATES:
        raise ConfigurationError(f"prepared state must be one of {STATES}, got {prepared}")

    segments = []
    t = 0.0
    state = prepared
    while True:
        down, up = _transition_rates(state, cfg)
        total = down + up
        if total == 0.0:
            segments.append((state, t, cfg.duration))
            break
        wait = rng.exponential(1.0 / total)
        end = t + wait
        if end >= cfg.duration:
            segments.append((state, t, cfg.duration))
            break
        segments.append((state, t, end))
        if up > 0.0 and rng.random() < up / total:
            state += 1
        else:
            state -= 1
        t = end
    return StatePath(tuple(segments))


class _Renderer:
    """Tables for rendering paths of one config into traces.

    Built once per call and shared by its shots: the state targets, the
    carrier phase, the carrier itself (only without phase noise), and each
    state's ring-up from an empty resonator at t = 0, which is the first
    segment of every path.  Each table holds exactly the values the
    per-shot formulas give (``0j - target`` is ``e - target`` at e = 0), so
    traces do not depend on whether a table was reused.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.n = cfg.n_samples
        self.targets = np.array(
            [amp * np.exp(1j * phase) for amp, phase in cfg.state_envelopes], dtype=complex
        )
        self.phase = 2.0 * np.pi * cfg.f_if * (np.arange(self.n) * cfg.dt)
        self.carrier = np.exp(1j * self.phase) if cfg.phase_noise_sigma == 0.0 else None
        if cfg.ring_time > 0.0:
            decay = np.exp(-(np.arange(self.n) * cfg.dt) / cfg.ring_time)
            self.ring_up = [target + (0j - target) * decay for target in self.targets]
        # noiseless trace of each single-segment path seen so far
        self._clean: dict[tuple, np.ndarray] = {}

    def envelope(self, path: StatePath) -> np.ndarray:
        """Complex resonator envelope at the sample times.

        First-order relaxation toward the current state's target with time
        constant ``ring_time``, integrated exactly over each constant-state
        stretch; the resonator starts empty (e = 0 at t = 0).
        """
        n, dt, tau = self.n, self.cfg.dt, self.cfg.ring_time
        env = np.empty(n, dtype=complex)
        e = 0.0 + 0.0j
        t_prev = 0.0
        for k, (state, start, end) in enumerate(path.segments):
            target = self.targets[state]
            lo = int(math.ceil(start / dt - 1e-12))
            hi = min(int(math.ceil(end / dt - 1e-12)), n)
            if tau == 0.0:
                env[lo:hi] = target
                continue
            if k == 0 and lo == 0:
                env[:hi] = self.ring_up[state][:hi]
            elif lo < hi:
                decay = np.exp(-(np.arange(lo, hi) * dt - t_prev) / tau)
                env[lo:hi] = target + (e - target) * decay
            # carry the envelope value forward to the segment end
            e = target + (e - target) * math.exp(-(end - t_prev) / tau)
            t_prev = end
        return env

    def samples(self, path: StatePath, rng: np.random.Generator) -> np.ndarray:
        """float32 trace of ``path``; ``rng`` continues after the herald draw."""
        cfg, n = self.cfg, self.n
        if self.carrier is not None:
            clean = self._clean.get(path.segments)
            if clean is None:
                clean = np.ascontiguousarray(np.real(self.envelope(path) * self.carrier))
                if len(path.segments) == 1:
                    self._clean[path.segments] = clean
        else:
            steps = rng.normal(0.0, cfg.phase_noise_sigma * math.sqrt(cfg.dt), n)
            clean = np.real(self.envelope(path) * np.exp(1j * (self.phase + np.cumsum(steps))))
        if cfg.noise_sigma > 0.0:
            clean = clean + rng.normal(0.0, cfg.noise_sigma, n)
        return clean.astype(np.float32)


def synthesize_shot(
    path: StatePath,
    cfg: SimConfig,
    rng: np.random.Generator,
    shot_id: int = 0,
) -> RawShot:
    """Render a state path into a digitized trace.

    ``rng`` must sit right after the path draws.  The shot then takes, in
    this order, the herald draw, the phase-noise steps (if
    ``phase_noise_sigma > 0``) and the ADC noise (if ``noise_sigma > 0``):
    the stream layout ``generate_dataset`` uses, so a shot rendered here from
    ``shot_rng(cfg.seed, shot_id)`` and its path equals the dataset's shot.
    """
    herald_pass = bool(rng.random() >= cfg.herald_error)
    samples = _Renderer(cfg).samples(path, rng)
    return RawShot(samples, path.initial_state, herald_pass, path, shot_id, cfg.sample_rate)


def _scan(cfg: SimConfig, shots_per_state: int):
    """Yield ``(attempt_id, path, rng)`` for every retained shot, lazily and
    in dataset order; ``rng`` holds the attempt's stream, right after the
    herald draw, until the next item is drawn.

    Scans attempt ids in order per state until enough heralded shots are
    collected.  The streams' start states are derived ``_SEED_BLOCK`` ids
    at a time, equal to ``shot_rng``'s, and loaded in turn into one
    generator, so a consumer that keeps no ``rng`` keeps no generator per
    shot.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    starts = itertools.chain.from_iterable(
        _stream_states(cfg.seed, first, _SEED_BLOCK)
        for first in itertools.count(0, _SEED_BLOCK)
    )
    attempt = 0
    for state in STATES:
        kept = 0
        # herald_error < 1 bounds the expected scan; the cap catches misuse
        limit = attempt + max(1000, 100 * shots_per_state)
        while kept < shots_per_state:
            if attempt >= limit:
                raise DataError("herald rejection rate too high to fill the dataset")
            _load(rng.bit_generator, *next(starts))
            path = sample_state_path(state, cfg, rng)
            if rng.random() >= cfg.herald_error:
                yield attempt, path, rng
                kept += 1
            attempt += 1


def _check_shots_per_state(shots_per_state) -> None:
    if not is_size(shots_per_state):
        raise ConfigurationError(
            f"shots_per_state must be an integer >= 1, not {shots_per_state!r}"
        )


def _pool_workers() -> int:
    """Processes to render with: every usable CPU, or 1 (render in this
    process) without ``os.sched_getaffinity`` or in a daemonic process."""
    if not hasattr(os, "sched_getaffinity") or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


_worker = None  # (renderer, block, generator) of a render worker


def _start_worker(render: _Renderer, block: np.ndarray) -> None:
    global _worker
    _worker = (render, block, np.random.Generator(np.random.PCG64(0)))


def _render_rows(tasks) -> None:
    """Render each ``(row, path, stream)`` into its row of the block, where
    ``stream`` holds the arguments of ``_load``."""
    render, block, rng = _worker
    for row, path, stream in tasks:
        _load(rng.bit_generator, *stream)
        block[row] = render.samples(path, rng)


def _render_pooled(render: _Renderer, block: np.ndarray, scan, workers: int) -> list:
    """Scan here, render in ``workers`` forked processes; returns the
    retained ``(attempt_id, path)`` pairs.  Every worker has exited when
    this returns or raises.

    Fork, not spawn: a forked worker inherits the renderer's tables and the
    shared block, where a spawned one would import numpy afresh and need a
    named segment.  Workers call no BLAS, so a BLAS thread pool alive at
    the fork does not reach them.
    """
    kept, tasks, futures = [], [], []
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(render, block),
    )
    try:
        for row, (attempt, path, rng) in enumerate(scan):
            kept.append((attempt, path))
            st = rng.bit_generator.state
            stream = st["state"]["state"], st["state"]["inc"], st["has_uint32"], st["uinteger"]
            tasks.append((row, path, stream))
            if len(tasks) == _POOL_CHUNK:
                futures.append(pool.submit(_render_rows, tasks))
                tasks = []
        if tasks:
            futures.append(pool.submit(_render_rows, tasks))
        for future in futures:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return kept


def generate_dataset(cfg: SimConfig, shots_per_state: int) -> Dataset:
    """Generate ``shots_per_state`` heralded shots for each of the 3 states.

    Shots failing heralding are discarded and replaced, so the retained count
    is exact.  Identical ``(cfg, shots_per_state)`` always yields a
    bit-identical dataset, rendered in this process or by worker processes
    (see the module docstring).  Every shot's ``samples`` is a row of one
    float32 block.
    """
    _check_shots_per_state(shots_per_state)
    rows, n = 3 * shots_per_state, cfg.n_samples
    if rows * n * 4 > MAX_DATASET_BYTES:
        raise DataError(
            f"requested dataset would need ~{rows * n * 4 >> 20} MiB of sample storage"
        )

    render = _Renderer(cfg)
    scan = _scan(cfg, shots_per_state)
    workers = 1
    if rows * n >= POOL_MIN_SAMPLES:
        workers = min(_pool_workers(), -(-rows // _POOL_CHUNK))  # no idle workers
    if workers > 1:
        # shared with the forked workers, so their rows need no copy back
        block = np.frombuffer(mmap.mmap(-1, rows * n * 4), np.float32).reshape(rows, n)
        kept = _render_pooled(render, block, scan, workers)
    else:
        block = np.empty((rows, n), np.float32)
        kept = []
        for row, (attempt, path, rng) in enumerate(scan):
            block[row] = render.samples(path, rng)
            kept.append((attempt, path))
    shots = [
        RawShot(block[row], path.initial_state, True, path, attempt, cfg.sample_rate)
        for row, (attempt, path) in enumerate(kept)
    ]
    return Dataset(shots=shots, config=cfg)


def regenerate_paths(
    cfg: SimConfig, shots_per_state: int, shots: list[RawShot] | None = None
) -> list[StatePath]:
    """Reproduce the ground-truth paths of ``generate_dataset`` without
    synthesizing their samples.

    ``shots``, if given, are the dataset's shots in order (for instance read
    back from disk), and are checked and restored in place.  Each must carry
    its path's prepared state as label, and the first shot of each state
    must equal, float32 byte for byte, the trace re-rendered from the
    replayed stream; otherwise ``DataError``.  Each shot then gets its true
    path and its ``shot_id`` (the attempt id) back.  Shots of another
    length or rate than the config's are refused before anything is
    rendered, so a config cannot make the check allocate more than the
    shots hold.
    """
    # count first: len(shots) // 3 asks 0 per state of a 1- or 2-shot file
    if shots is not None and is_integer(shots_per_state) and len(shots) != 3 * shots_per_state:
        raise DataError(f"expected {3 * shots_per_state} shots, got {len(shots)}")
    _check_shots_per_state(shots_per_state)
    if shots is not None and shot_format(shots) != (cfg.n_samples, cfg.sample_rate):
        raise DataError(
            f"config renders {cfg.n_samples} samples at rate {cfg.sample_rate}, "
            f"not the shots' {len(shots[0].samples)} at {shots[0].sample_rate}"
        )
    render = _Renderer(cfg)
    paths, attempts = [], []
    for k, (attempt, path, rng) in enumerate(_scan(cfg, shots_per_state)):
        paths.append(path)
        attempts.append(attempt)
        if shots is None:
            continue
        if shots[k].label != path.initial_state:
            raise DataError(f"config does not reproduce these shots (label of row {k})")
        if k % shots_per_state == 0:
            again = render.samples(path, rng)
            if again.tobytes() != np.asarray(shots[k].samples, dtype=np.float32).tobytes():
                raise DataError(f"config does not reproduce these shots (samples of row {k})")
    for shot, path, attempt in zip(shots or (), paths, attempts):
        shot.true_path = path
        shot.shot_id = attempt
    return paths


def decay_statistics(dataset: Dataset) -> dict[int, float]:
    """Fraction of shots per prepared state whose path left its initial state."""
    out = {}
    for state in STATES:
        shots = [s for s in dataset.shots if s.label == state]
        if not shots:
            out[state] = 0.0
            continue
        n_dec = sum(1 for s in shots if s.true_path is not None and s.true_path.has_transition)
        out[state] = n_dec / len(shots)
    return out


def easy_config(seed: int = 0) -> SimConfig:
    """Zero-decay, widely separated configuration for sanity checks."""
    return replace(
        SimConfig(),
        t1=(None, None),
        noise_sigma=6.8,
        seed=seed,
    )
