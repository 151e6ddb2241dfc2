"""Determinism and distribution tests for the seeded RNG."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import DeterministicRng, ExponentialStream


def test_same_seed_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.random() for __ in range(20)] == [b.random() for __ in range(20)]


def test_different_seeds_differ():
    a = DeterministicRng(7)
    b = DeterministicRng(8)
    assert [a.random() for __ in range(5)] != [b.random() for __ in range(5)]


def test_fork_is_deterministic_and_independent():
    root = DeterministicRng(42)
    fork1 = root.fork(1)
    fork1_again = DeterministicRng(42).fork(1)
    assert ([fork1.random() for __ in range(10)]
            == [fork1_again.random() for __ in range(10)])
    fork2 = root.fork(2)
    assert fork1.seed != fork2.seed


def test_jitter_zero_std_is_identity(rng):
    assert rng.jitter(100.0, 0.0) == 100.0


def test_jitter_stays_positive(rng):
    samples = [rng.jitter(10.0, 2.0) for __ in range(500)]
    assert all(s >= 1.0 for s in samples)  # clamped at 10% of base


def test_jitter_mean_near_base(rng):
    samples = [rng.jitter(1000.0, 0.05) for __ in range(2000)]
    assert abs(np.mean(samples) - 1000.0) < 10.0


def test_randint_range(rng):
    values = {rng.randint(3, 7) for __ in range(200)}
    assert values == {3, 4, 5, 6}


def test_random_cachelines_distinct_when_possible(rng):
    lines = rng.random_cachelines(10, 100)
    assert len(set(lines.tolist())) == 10
    assert all(0 <= i < 100 for i in lines)


def test_random_cachelines_wraps_when_region_small(rng):
    lines = rng.random_cachelines(50, 10)
    assert len(lines) == 50
    assert all(0 <= i < 10 for i in lines)


def test_random_bytes_length_and_determinism():
    a = DeterministicRng(5).random_bytes(64)
    b = DeterministicRng(5).random_bytes(64)
    assert len(a) == 64 and a == b


def test_exponential_positive(rng):
    assert all(rng.exponential(100.0) > 0 for __ in range(100))


def test_choice_and_shuffle(rng):
    items = list(range(10))
    picked = rng.choice(items)
    assert picked in items
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


# -- ExponentialStream: block-drawn interarrivals -----------------------------

BLOCKS = (1, 2, 512)
means = st.lists(st.floats(0.5, 5_000.0), min_size=1, max_size=8)


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), mean_cycle=means,
       n=st.integers(0, 1_200))
def test_stream_draws_equal_scalar_exponential(block, seed, mean_cycle, n):
    scalar = DeterministicRng(seed)
    stream = ExponentialStream(DeterministicRng(seed), block)
    for i in range(n):
        mean = mean_cycle[i % len(mean_cycle)]
        assert stream.draw(mean) == scalar.exponential(mean)


def scalar_window(rng, nxt, end, mean):
    out = []
    while nxt < end:
        out.append(nxt)
        nxt += rng.exponential(mean)
    return out, nxt


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), mean_cycle=means,
       spans=st.lists(st.floats(-50.0, 3_000.0), min_size=1, max_size=25),
       draws_between=st.lists(st.integers(0, 3), min_size=1, max_size=25))
def test_stream_window_equals_scalar_loop(block, seed, mean_cycle, spans,
                                          draws_between):
    """Windows of any width, empty ones included (a window ending at or
    before the pending arrival), interleaved with single draws: values,
    the pending arrival and the stream position all match."""
    scalar = DeterministicRng(seed)
    stream = ExponentialStream(DeterministicRng(seed), block)
    nxt_s = nxt_f = 10.0
    for i, span in enumerate(spans):
        mean = mean_cycle[i % len(mean_cycle)]
        end = nxt_s + span
        want, nxt_s = scalar_window(scalar, nxt_s, end, mean)
        got, nxt_f = stream.window(nxt_f, end, mean)
        assert got.tolist() == want
        assert nxt_f == nxt_s
        for _ in range(draws_between[i % len(draws_between)]):
            assert stream.draw(mean) == scalar.exponential(mean)
    assert stream.draw(1.0) == scalar.exponential(1.0)


def test_stream_leaves_generator_state_at_block_boundaries():
    rng = DeterministicRng(3)
    stream = ExponentialStream(rng, 4)
    reference = DeterministicRng(3)
    for _ in range(8):
        stream.draw(2.0)
        reference.exponential(2.0)
    assert rng.state() == reference.state()


@pytest.mark.parametrize("block", BLOCKS)
def test_stream_pickled_mid_block_resumes_identically(block):
    stream = ExponentialStream(DeterministicRng(11), block)
    arrivals, nxt = stream.window(0.0, 700.0, 25.0)
    stream.draw(7.0)
    clone = pickle.loads(pickle.dumps(stream))
    for mean in (3.0, 40.0, 900.0):
        a, nxt_a = stream.window(nxt, nxt + 2_000.0, mean)
        b, nxt_b = clone.window(nxt, nxt + 2_000.0, mean)
        assert a.tolist() == b.tolist() and nxt_a == nxt_b
        assert stream.draw(mean) == clone.draw(mean)
        nxt = nxt_a
    assert len(arrivals) > 0


def test_stream_rejects_empty_blocks():
    with pytest.raises(ValueError):
        ExponentialStream(DeterministicRng(1), 0)
