"""Differential tests: the fused P² batch update against the per-sample
reference in ``tests/sim/p2_oracle.py``.

``StreamingLatencyStats.extend`` runs one moments pass and one
``_P2Quantile.add_many`` per bank.  For any sample stream and any split
of it into batches, every bank field and every recorder moment must
equal (``==``, not approx) what the one-sample-at-a-time update leaves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import DeterministicRng
from repro.sim.stats import StreamingLatencyStats
from tests.sim.p2_oracle import OracleStreamingStats


def recorder_state(rec: StreamingLatencyStats) -> tuple:
    banks = tuple((key, list(m._heights), list(m._pos), list(m._want), m._n)
                  for key, m in rec._marks.items())
    return (rec._count, rec._mean, rec._m2, rec._min, rec._max, banks)


@st.composite
def sample_lists(draw):
    """Latency-shaped streams: exponential, small-integer ties, sorted
    runs both ways and constant runs; short (0-12) or long (up to 5k)."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(13, 5_000)))
    kind = draw(st.sampled_from(
        ("exponential", "ties", "ascending", "descending", "constant")))
    rng = DeterministicRng(draw(st.integers(0, 2**31 - 1)))
    if kind == "exponential":
        return rng.exponential_array(5_000.0, n).tolist()
    if kind == "ties":
        return [float(v) for v in rng.integers_array(0, 5, n)]
    if kind == "constant":
        return [draw(st.sampled_from((0.0, 1.0, 250.5)))] * n
    xs = sorted(rng.exponential_array(100.0, n).tolist())
    return xs if kind == "ascending" else xs[::-1]


@st.composite
def chunked(draw):
    """A sample list and a random split of it into consecutive batches."""
    xs = draw(sample_lists())
    cuts = sorted(draw(st.lists(st.integers(0, len(xs)), max_size=12)))
    bounds = [0] + cuts + [len(xs)]
    return xs, [xs[a:b] for a, b in zip(bounds, bounds[1:])]


def feed_oracle(xs) -> OracleStreamingStats:
    rec = OracleStreamingStats()
    rec.extend(xs)
    return rec


def feed_fused(chunks) -> StreamingLatencyStats:
    rec = StreamingLatencyStats()
    for chunk in chunks:
        rec.extend(chunk)
    return rec


@settings(max_examples=150, deadline=None)
@given(case=chunked())
def test_fused_update_equals_per_sample_reference(case):
    xs, chunks = case
    assert recorder_state(feed_fused(chunks)) == \
        recorder_state(feed_oracle(xs))


@settings(max_examples=60, deadline=None)
@given(case=chunked())
def test_record_per_sample_equals_one_extend(case):
    xs, _chunks = case
    one = StreamingLatencyStats()
    # One call per sample is the thing under test.
    for x in xs:  # reprolint: disable=PERF408
        one.record(x)
    batch = StreamingLatencyStats()
    batch.extend(xs)
    assert recorder_state(one) == recorder_state(batch)


@settings(max_examples=100, deadline=None)
@given(left=chunked(), right=chunked())
def test_merging_fused_recorders_equals_merging_oracle_fed_ones(left, right):
    """Covers every merge regime: empty, fewer than 5 samples on either
    side (the replay branches) and the live-bank mixture."""
    fused = feed_fused(left[1]).merge(feed_fused(right[1]))
    oracle = feed_oracle(left[0]).merge(feed_oracle(right[0]))
    assert recorder_state(fused) == recorder_state(oracle)


def test_extend_is_atomic_on_a_negative_sample():
    rec = StreamingLatencyStats()
    rec.extend([5.0, 1.0, 9.0, 2.0, 7.0, 3.0])
    before = recorder_state(rec)
    with pytest.raises(ValueError, match="negative latency: -4.0"):
        rec.extend([8.0, 6.0, -4.0, 1.0])
    assert recorder_state(rec) == before
    with pytest.raises(ValueError):
        rec.record(-1.0)
    assert recorder_state(rec) == before
