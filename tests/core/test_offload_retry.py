"""Offload robustness: timeouts, bounded retry, health state, fallback."""

from __future__ import annotations

import pytest

from repro.core.offload import OffloadEngine
from repro.errors import FaultError, OffloadTimeoutError
from repro.faults import FaultPlan, HealthState

PAGE = bytes(range(256)) * 16


def _armed_engine(platform, spec="", **plan_kwargs):
    plan = (FaultPlan.parse(spec, seed=5) if spec
            else FaultPlan(seed=5, **plan_kwargs))
    platform.arm_faults(plan)
    return OffloadEngine(platform, functional=True), plan


def test_single_drop_retries_and_succeeds(platform):
    """One dropped completion: the op pays timeout + backoff, retries,
    succeeds — the caller never sees an error."""
    engine, plan = _armed_engine(platform)
    plan.arm_counted("offload_drop", 1)
    sim = platform.sim

    def op():
        t0 = sim.now
        report = yield from engine.compress_page("cxl", data=PAGE)
        return report, sim.now - t0

    report, elapsed = sim.run_process(op())
    assert report.result is not None
    assert engine.timeouts == 1
    assert engine.retries == 1
    # Paid at least the command timeout plus the first backoff.
    assert elapsed > engine.command_timeout_ns + engine.retry_backoff_ns
    # Recovered: one failure then success leaves the device healthy.
    assert engine.health.state is HealthState.HEALTHY


def test_persistent_hang_exhausts_retries_and_fails_device(platform):
    engine, plan = _armed_engine(platform)
    plan.set_flag("device_hang")
    sim = platform.sim

    with pytest.raises(FaultError):
        sim.run_process(engine.compress_page("cxl", data=PAGE))
    assert engine.health.state is HealthState.FAILED
    # fail_threshold consecutive failures, each a timed-out attempt.
    assert engine.timeouts == engine.health.fail_threshold
    assert engine.doorbell.orphaned == engine.timeouts


def test_failed_device_fast_fails_without_waiting(platform):
    """After FAILED, further cxl attempts raise immediately — no timeout
    burn per operation (callers fall back at zero added latency)."""
    engine, plan = _armed_engine(platform)
    plan.set_flag("device_hang")
    sim = platform.sim

    with pytest.raises(FaultError):
        sim.run_process(engine.compress_page("cxl", data=PAGE))
    t0 = sim.now
    with pytest.raises(FaultError):
        sim.run_process(engine.compress_page("cxl", data=PAGE))
    assert sim.now == t0                   # not one tick spent


def test_backoff_is_exponential(platform):
    """Three consecutive drops: gaps double (5, 10, 20 us defaults)."""
    engine, plan = _armed_engine(platform)
    plan.arm_counted("offload_drop", 3)
    sim = platform.sim

    def op():
        t0 = sim.now
        yield from engine.compress_page("cxl", data=PAGE)
        return sim.now - t0

    elapsed = sim.run_process(op())
    spent_waiting = 3 * engine.command_timeout_ns
    spent_backoff = engine.retry_backoff_ns * (1 + 2 + 4)
    assert elapsed > spent_waiting + spent_backoff
    assert engine.retries == 3
    assert engine.health.state is not HealthState.FAILED   # 3 < threshold


def test_cpu_transport_untouched_by_device_hang(platform):
    """The hang only affects the cxl path: cpu ops never consult the
    doorbell."""
    engine, plan = _armed_engine(platform)
    plan.set_flag("device_hang")
    report = platform.sim.run_process(engine.compress_page("cpu", data=PAGE))
    assert report.result is not None
    assert engine.timeouts == 0


def test_dead_link_faults_the_cxl_attempt(platform):
    """A dead CXL link surfaces as a FaultError through the retry layer
    (every attempt's submit raises LinkError at the wire)."""
    engine, __ = _armed_engine(platform)
    platform.t2.port.link.fail()
    with pytest.raises(FaultError):
        platform.sim.run_process(engine.compress_page("cxl", data=PAGE))
    assert engine.fault_errors > 0


def test_engine_reset_restores_service(platform):
    """Health reset after a device reset: cxl offloads serve again."""
    engine, plan = _armed_engine(platform)
    plan.set_flag("device_hang")
    sim = platform.sim
    with pytest.raises(FaultError):
        sim.run_process(engine.compress_page("cxl", data=PAGE))
    assert engine.health.state is HealthState.FAILED
    plan.clear_flag("device_hang")
    platform.t2.reset()
    engine.health.reset()
    report = sim.run_process(engine.compress_page("cxl", data=PAGE))
    assert report.result is not None


def test_unarmed_plan_adds_no_bookkeeping(platform):
    """No plan armed: the robust path is bypassed entirely."""
    engine = OffloadEngine(platform, functional=True)
    report = platform.sim.run_process(engine.compress_page("cxl", data=PAGE))
    assert report.result is not None
    assert engine.timeouts == engine.retries == engine.fault_errors == 0


def test_dropped_command_cannot_be_served_by_a_concurrent_offload(platform):
    """Two overlapping offloads, the first dropped: the second's device
    poll must serve its own command, not the dropped one queued ahead
    of it.  The first times out; the second gets its own result."""
    engine, plan = _armed_engine(platform)
    plan.arm_counted("offload_drop", 1)
    engine.max_retries = 0
    sim = platform.sim
    other = bytes(reversed(PAGE))
    outcome = {}

    def first():
        try:
            yield from engine.compress_page("cxl", data=PAGE)
        except OffloadTimeoutError:
            outcome["first"] = ("timeout", sim.now)

    def second():
        yield sim.timeout_event(50.0)          # submits while first waits
        report = yield from engine.compress_page("cxl", data=other)
        outcome["second"] = (report.result, sim.now)

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert outcome["first"][0] == "timeout"
    alone = OffloadEngine(platform, functional=True)
    own = sim.run_process(alone.compress_page("cpu", data=other)).result
    assert outcome["second"][0] == own
    assert outcome["second"][1] < outcome["first"][1]
    assert engine.timeouts == 1
    assert engine.doorbell.orphaned == 1
    assert engine.doorbell.late_completions == 0
    assert not engine.doorbell.inflight
