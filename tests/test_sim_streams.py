"""The scan's bulk stream seeding against numpy's own, state for state.

``sim._stream_states`` re-derives, for a block of attempt ids at once, the
PCG64 start state that ``shot_rng(seed, id)`` (``default_rng([seed, id])``:
``SeedSequence``, then PCG64's seeding steps) gives.  These tests compare
the two directly, so a numpy release that seeds differently fails here
instead of silently changing generated data, and then compare the scan
itself with a ``shot_rng`` loop where the seeding blocks begin and end.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutkit import SimConfig, sample_state_path, shot_rng
from readoutkit import sim
from readoutkit.sim import STATES, _scan, _stream_states

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)
SEEDS = st.integers(0, 2**64 - 1)
# numpy coerces an id below 2**32 to one entropy word and a larger one to
# two, so the starts cover both sides of 2**32: the derivation, which always
# takes two words, must match numpy on either side
STARTS = st.one_of(
    st.integers(0, 10_000),
    st.integers(2**32 - 40, 2**32 + 40),
    st.integers(2**32, 2**64 - 64),
)


def _oracle(seed, attempt):
    state = shot_rng(seed, attempt).bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    return state["state"]["state"], state["state"]["inc"]


@FUZZ
@given(seed=SEEDS, start=STARTS, count=st.integers(1, 40))
@example(seed=0, start=0, count=1)
@example(seed=2**64 - 1, start=2**32 - 20, count=40)
def test_stream_states_equal_numpy_seeding(seed, start, count):
    want = [_oracle(seed, a) for a in range(start, start + count)]
    assert _stream_states(seed, start, count) == want


@pytest.mark.parametrize("seed", [0, 1, 1013, 2**32 - 1, 2**32 + 5, 2**64 - 1])
def test_attempt_zero_and_ids_either_side_of_two_to_the_32(seed):
    assert _stream_states(seed, 0, 1) == [_oracle(seed, 0)]
    # one block straddling 2**32, where numpy's coercion of the id changes:
    # the derivation must match it on both sides within one pass
    start = 2**32 - 3
    block = _stream_states(seed, start, 6)
    assert block == [_oracle(seed, a) for a in range(start, start + 6)]
    assert block[:3] == _stream_states(seed, start, 3)
    assert block[3:] == _stream_states(seed, 2**32, 3)
    for a in (2**32 - 1, 2**32, 2**40, 2**64 - 1):
        assert _stream_states(seed, a, 1) == [_oracle(seed, a)]


def _oracle_scan(cfg, shots_per_state):
    """``(attempt, path, next draw)`` per retained shot, each attempt's
    stream seeded by ``shot_rng``; and the first attempt of each state."""
    out, firsts, attempt = [], [], 0
    for state in STATES:
        firsts.append(attempt)
        kept = 0
        while kept < shots_per_state:
            rng = shot_rng(cfg.seed, attempt)
            path = sample_state_path(state, cfg, rng)
            if rng.random() >= cfg.herald_error:
                out.append((attempt, path, rng.random()))
                kept += 1
            attempt += 1
    return out, firsts


def test_scan_equals_shot_rng_at_seeding_block_edges(monkeypatch):
    # heralding rejects about a third of the attempts
    cfg = SimConfig(duration=100.0, herald_error=0.3, seed=7)
    want, firsts = _oracle_scan(cfg, 20)
    state_1 = firsts[1]
    # block sizes whose edges fall mid-state, and one with an edge exactly
    # at the first attempt of state 1
    for block in (1, 7, state_1, state_1 + 1):
        monkeypatch.setattr(sim, "_SEED_BLOCK", block)
        got = [(a, path, rng.random()) for a, path, rng in _scan(cfg, 20)]
        assert got == want
    assert all(a % 7 for a in firsts[1:])  # 7's edges are all mid-state
    assert len(want) == 60 and want[-1][0] + 1 > 60 + 10
