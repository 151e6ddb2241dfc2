"""Tests for measurement statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import flags
from repro.sim.rng import DeterministicRng
from repro.sim.stats import (LatencyStats, StreamingLatencyStats,
                             bandwidth_gbps, latency_recorder, summarize)


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.n == 5
    assert s.median == 3.0
    assert s.mean == 3.0
    assert s.minimum == 1.0 and s.maximum == 5.0


def test_summarize_median_robust_to_outlier():
    s = summarize([10.0] * 99 + [10_000.0])
    assert s.median == 10.0
    assert s.mean > 10.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_bandwidth_gbps():
    # 64 bytes in 8 ns = 8 bytes/ns = 8 GB/s
    assert bandwidth_gbps(64, 8.0) == pytest.approx(8.0)


def test_bandwidth_requires_positive_time():
    with pytest.raises(ValueError):
        bandwidth_gbps(64, 0.0)


def test_latency_stats_percentiles():
    stats = LatencyStats()
    stats.extend(float(i) for i in range(1, 101))
    assert stats.p50() == pytest.approx(50.5)
    assert stats.p99() == pytest.approx(99.01)
    assert stats.count == 100
    assert stats.mean() == pytest.approx(50.5)


def test_latency_stats_rejects_negative():
    stats = LatencyStats()
    with pytest.raises(ValueError):
        stats.record(-1.0)


def test_latency_stats_extend_is_atomic():
    stats = LatencyStats()
    stats.extend([3.0, 1.0])
    assert stats.p50() == 2.0
    with pytest.raises(ValueError, match="negative latency: -2.0"):
        stats.extend(x for x in (5.0, -2.0, 7.0))
    assert stats._samples == [3.0, 1.0]
    assert stats.p50() == 2.0


def test_latency_stats_empty_percentile_rejected():
    with pytest.raises(ValueError):
        LatencyStats().p99()


def test_latency_stats_summary_roundtrip():
    stats = LatencyStats()
    stats.extend([5.0, 7.0, 9.0])
    assert stats.summary().median == 7.0


# ---------------------------------------------------------------------------
# Sorted-array cache: percentile sweeps must not re-sort per query
# ---------------------------------------------------------------------------


def test_percentile_queries_reuse_one_sorted_array():
    """The micro-regression the cache fixes: a p50/p99/p999 sweep used
    to convert+sort the sample list once *per query*.  The cached array
    must be built once and shared by every query until a record."""
    stats = LatencyStats()
    stats.extend(float(i % 97) for i in range(5000))
    stats.p50()
    cached = stats._sorted
    assert cached is not None
    stats.p99()
    stats.p999()
    stats.mean()
    assert stats._sorted is cached          # no rebuild across the sweep


def test_recording_invalidates_percentile_cache():
    stats = LatencyStats()
    stats.extend([1.0, 2.0, 3.0])
    assert stats.p99() == pytest.approx(2.98)
    cached = stats._sorted
    stats.record(100.0)
    assert stats._sorted is None            # invalidated, not stale
    assert stats.p50() == pytest.approx(2.5)
    assert stats._sorted is not cached


def test_cached_percentiles_bit_identical_to_direct_numpy():
    rng = DeterministicRng(77)
    stats = LatencyStats()
    samples = [rng.exponential(1000.0) for _ in range(4096)]
    stats.extend(samples)
    for pct in (50.0, 90.0, 99.0, 99.9):
        assert stats.percentile(pct) == float(
            np.percentile(np.asarray(samples, dtype=float), pct))


# ---------------------------------------------------------------------------
# Streaming (P²) recorder
# ---------------------------------------------------------------------------


def _heavy_tail_samples(n, seed=31):
    """Deterministic heavy-tailed latencies (log of an exponential:
    Pareto-like tail, index 2.5 — heavier than the open-loop Redis
    distribution ext_scale measures, where the errors are smaller
    still; that pipeline's live check is ``ext_scale --compare-exact``)."""
    rng = DeterministicRng(seed)
    out = []
    for _ in range(n):
        x = rng.exponential(1.0)
        out.append(1000.0 * (2.718281828 ** (0.4 * x)))
    return out


def test_streaming_percentiles_within_documented_tolerance():
    """docs/PERFORMANCE.md pins these bounds; ext_scale banks on them."""
    samples = _heavy_tail_samples(200_000)
    exact = LatencyStats()
    stream = StreamingLatencyStats()
    exact.extend(samples)
    stream.extend(samples)
    assert abs(stream.p50() - exact.p50()) / exact.p50() < 0.01
    assert abs(stream.p99() - exact.p99()) / exact.p99() < 0.02
    assert abs(stream.p999() - exact.p999()) / exact.p999() < 0.02


def test_streaming_moments_are_exact():
    samples = _heavy_tail_samples(10_000, seed=32)
    exact = LatencyStats()
    stream = StreamingLatencyStats()
    exact.extend(samples)
    stream.extend(samples)
    assert stream.count == exact.count == len(samples)
    assert stream.mean() == pytest.approx(exact.mean(), rel=1e-12)
    summary = stream.summary()
    assert summary.minimum == min(samples)
    assert summary.maximum == max(samples)
    assert summary.std == pytest.approx(
        float(np.asarray(samples).std()), rel=1e-9)


def test_streaming_small_sample_counts_match_exact():
    """Below the 5-marker threshold the P² bank answers exactly."""
    for n in range(1, 5):
        samples = [float(v) for v in range(10, 10 + n)]
        exact = LatencyStats()
        stream = StreamingLatencyStats()
        exact.extend(samples)
        stream.extend(samples)
        for pct in (50.0, 99.0, 99.9):
            assert stream.percentile(pct) == pytest.approx(
                exact.percentile(pct))


def test_streaming_untracked_percentile_raises():
    stream = StreamingLatencyStats()
    stream.record(1.0)
    with pytest.raises(ValueError, match="only tracks"):
        stream.percentile(95.0)


def test_streaming_rejects_negative_and_empty():
    stream = StreamingLatencyStats()
    with pytest.raises(ValueError):
        stream.record(-1.0)
    with pytest.raises(ValueError):
        stream.p99()


def test_streaming_memory_is_flat():
    """The whole point: recorder state does not grow with samples."""
    import sys
    stream = StreamingLatencyStats()
    stream.extend(float(i) for i in range(100))
    size_small = sum(sys.getsizeof(q._heights) + sys.getsizeof(q._pos)
                     for q in stream._marks.values())
    stream.extend(float(i) for i in range(100_000))
    size_large = sum(sys.getsizeof(q._heights) + sys.getsizeof(q._pos)
                     for q in stream._marks.values())
    assert size_large == size_small


def test_latency_recorder_mode_switch():
    with flags.override(stats="stream"):
        assert isinstance(latency_recorder(), StreamingLatencyStats)
    with flags.override(stats="exact"):
        assert isinstance(latency_recorder(), LatencyStats)


def test_percentile_cache_invalidated_across_pickle():
    """Checkpoint regression: a restored LatencyStats must recompute its
    sorted-percentile cache.  A carried cache of matching length would
    satisfy the staleness heuristic while holding pre-snapshot order, so
    __getstate__ drops it and __setstate__ restores with it empty."""
    import pickle

    stats = LatencyStats()
    stats.extend(float(i) for i in range(100))
    assert stats.p99() > 0                     # populate the cache
    restored = pickle.loads(pickle.dumps(stats, protocol=4))
    assert restored._sorted is None
    assert restored.p99() == stats.p99()
    # Post-restore records must feed the percentiles, not a stale array.
    restored.record(10_000.0)
    assert restored.percentile(100.0) == 10_000.0


def test_streaming_stats_survive_pickle_byte_identically():
    import pickle

    stream = StreamingLatencyStats()
    stream.extend(float((i * 37) % 1009) for i in range(5_000))
    restored = pickle.loads(pickle.dumps(stream, protocol=4))
    tail = [float((i * 41) % 2017) for i in range(500)]
    stream.extend(tail)
    restored.extend(tail)
    assert restored.p50() == stream.p50()
    assert restored.p99() == stream.p99()
    assert restored.p999() == stream.p999()
