"""ext_scale: the scale pipeline at CI-sized request counts.

The 5M-request acceptance run lives in CI's smoke job; these tests pin
the experiment's semantics cheaply — determinism, recorder plumbing,
the tolerance comparison, and the RSS trace contract.
"""

from __future__ import annotations

from repro import flags
from repro.experiments import ext_scale

# Large enough for the P² markers to settle inside the documented
# tolerances (they keep tightening with N; see docs/PERFORMANCE.md),
# small enough to keep tier-1 fast.
REQUESTS = 20_000


def test_streaming_run_meets_target_and_tolerance():
    result = ext_scale.run(requests=REQUESTS, mode="stream",
                           compare_exact=True, checkpoints=5)
    assert result.mode == "stream"
    assert result.requests >= REQUESTS
    assert result.exact_rel_err is not None
    for name, err in result.exact_rel_err.items():
        assert err <= ext_scale.STREAM_TOLERANCE[name], (name, err)
    assert len(result.rss_kb) >= 1
    table = ext_scale.format_table(result)
    assert "stream stats" in table and "OVER" not in table
    assert "rss trace" in ext_scale.format_rss_trace(result)


def test_run_is_deterministic_per_mode():
    a = ext_scale.run(requests=REQUESTS, mode="stream", checkpoints=3)
    b = ext_scale.run(requests=REQUESTS, mode="stream", checkpoints=3)
    assert (a.requests, a.p50_ns, a.p99_ns, a.p999_ns, a.mean_ns) == \
           (b.requests, b.p50_ns, b.p99_ns, b.p999_ns, b.mean_ns)


def test_exact_mode_uses_exact_recorder_and_same_workload():
    stream = ext_scale.run(requests=REQUESTS, mode="stream", checkpoints=3)
    exact = ext_scale.run(requests=REQUESTS, mode="exact", checkpoints=3)
    assert exact.mode == "exact"
    # Same seed, same arrivals: identical request count, and the
    # streamed percentiles sit within tolerance of the exact ones.
    assert exact.requests == stream.requests
    assert abs(stream.p99_ns - exact.p99_ns) / exact.p99_ns \
        <= ext_scale.STREAM_TOLERANCE["p99"]


def test_ambient_mode_flows_from_set_stats():
    """``mode=None`` samples the ``stats`` flag."""
    with flags.override(stats="stream"):
        result = ext_scale.run(requests=REQUESTS, checkpoints=3)
    assert result.mode == "stream"
