"""Tests for the graceful-degradation layer (:mod:`repro.resilience`)."""

from __future__ import annotations

import pytest

from repro import flags
from repro.core.offload import OffloadEngine, OffloadReport
from repro.core.platform import Platform
from repro.errors import ConfigError
from repro.faults import FaultPlan, HealthState
from repro.resilience import (
    DEFAULT_TENANTS,
    NO_RESILIENCE,
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    ResiliencePolicy,
    SloAccounting,
    Tenant,
    TokenBucket,
)
from repro.sim.bulk import BULK_STATS
from repro.units import ms, us


# ---------------------------------------------------------------------------
# the inert singleton and configuration validation
# ---------------------------------------------------------------------------

def test_no_resilience_is_inert():
    assert not NO_RESILIENCE.armed
    assert NO_RESILIENCE.admit()
    assert NO_RESILIENCE.admit(DEFAULT_TENANTS[0])


@pytest.mark.parametrize("kwargs", [
    {"breaker_threshold": 0},
    {"breaker_probe_interval_ns": 0.0},
    {"breaker_probe_backoff": 0.5},
    {"hedge_quantile": 1.0},
    {"hedge_min_samples": 2},
    {"hedge_multiplier": 0.0},
    {"hedge_floor_ns": -1.0},
    {"shed_queue_watermark": 0},
    {"brownout_rate_per_ns": 0.0},
    {"brownout_burst": 0.0},
])
def test_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        ResilienceConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"priority": -1},
    {"slo_p99_ns": 0.0},
    {"error_budget": 0.0},
    {"error_budget": 1.5},
])
def test_tenant_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        Tenant("t", **kwargs)


# ---------------------------------------------------------------------------
# circuit breaker state machine
# ---------------------------------------------------------------------------

def test_breaker_trips_after_threshold():
    cb = CircuitBreaker(threshold=3, probe_interval_ns=100.0)
    assert cb.allow(0.0)
    cb.record_failure(1.0)
    cb.record_failure(2.0)
    assert cb.state is BreakerState.CLOSED
    cb.record_failure(3.0)
    assert cb.state is BreakerState.OPEN
    assert cb.trips == 1
    assert not cb.allow(3.0)                 # fail-fast before the probe


def test_breaker_success_resets_the_streak():
    cb = CircuitBreaker(threshold=3, probe_interval_ns=100.0)
    cb.record_failure(1.0)
    cb.record_failure(2.0)
    cb.record_success(3.0)
    cb.record_failure(4.0)
    cb.record_failure(5.0)
    assert cb.state is BreakerState.CLOSED   # streak restarted


def test_breaker_probe_cycle():
    cb = CircuitBreaker(threshold=1, probe_interval_ns=100.0)
    cb.record_failure(0.0)
    assert cb.state is BreakerState.OPEN
    assert not cb.allow(50.0)                # probe not yet due
    assert cb.allow(100.0)                   # the probe
    assert cb.state is BreakerState.HALF_OPEN
    assert not cb.allow(100.0)               # one probe at a time
    cb.record_success(101.0)
    assert cb.state is BreakerState.CLOSED
    assert cb.probes == 1


def test_breaker_failed_probe_backs_off():
    cb = CircuitBreaker(threshold=1, probe_interval_ns=100.0,
                        probe_backoff=2.0)
    cb.record_failure(0.0)
    assert cb.allow(100.0)                   # probe 1
    cb.record_failure(101.0)
    assert cb.state is BreakerState.OPEN
    assert cb.next_probe_at_ns == pytest.approx(301.0)    # 101 + 100*2
    assert cb.allow(301.0)                   # probe 2
    cb.record_failure(302.0)
    assert cb.next_probe_at_ns == pytest.approx(702.0)    # 302 + 100*4


def test_breaker_note_repair_pulls_probe_forward():
    cb = CircuitBreaker(threshold=1, probe_interval_ns=ms(1.0))
    cb.record_failure(0.0)
    assert not cb.allow(10.0)
    cb.note_repair(10.0)
    assert cb.allow(10.0)                    # probe admitted immediately


def test_breaker_late_failures_while_open_are_absorbed():
    cb = CircuitBreaker(threshold=1, probe_interval_ns=100.0)
    cb.record_failure(0.0)
    trips = cb.trips
    cb.record_failure(1.0)                   # abandoned primary resolving late
    cb.record_failure(2.0)
    assert cb.trips == trips                 # no double-trip
    assert cb.next_probe_at_ns == pytest.approx(100.0)   # deadline unchanged


# ---------------------------------------------------------------------------
# token bucket and admission control
# ---------------------------------------------------------------------------

def test_token_bucket_is_deterministic():
    tb = TokenBucket(rate_per_ns=0.01, burst=2.0)        # 1 token / 100 ns
    assert tb.try_take(0.0)
    assert tb.try_take(0.0)                  # burst of 2
    assert not tb.try_take(0.0)              # drained
    assert not tb.try_take(50.0)             # refilled only 0.5
    assert tb.try_take(150.0)                # >= 1 token again
    assert tb.granted == 3 and tb.denied == 2


def test_admission_free_in_fair_weather():
    ctl = AdmissionController(ResilienceConfig())
    bronze = DEFAULT_TENANTS[2]
    assert all(ctl.admit(bronze, float(t), queue_depth=0, brownout=False)
               for t in range(100))
    assert ctl.shed == 0


def test_admission_gold_never_shed():
    ctl = AdmissionController(ResilienceConfig())
    gold = DEFAULT_TENANTS[0]
    assert all(ctl.admit(gold, float(t), queue_depth=99, brownout=True)
               for t in range(100))
    assert ctl.shed == 0


def test_admission_brownout_token_gates_non_gold():
    cfg = ResilienceConfig(brownout_rate_per_ns=1.0 / us(50.0),
                           brownout_burst=1.0)
    ctl = AdmissionController(cfg)
    silver = DEFAULT_TENANTS[1]
    # Arrivals every 10 us during brownout: only ~1 in 5 wins a token.
    admitted = sum(ctl.admit(silver, t * us(10.0), 0, brownout=True)
                   for t in range(50))
    assert 0 < admitted < 25
    assert ctl.shed == 50 - admitted


def test_admission_queue_watermark_triggers_shedding():
    cfg = ResilienceConfig(shed_queue_watermark=4, brownout_burst=1.0)
    ctl = AdmissionController(cfg)
    bronze = DEFAULT_TENANTS[2]
    assert ctl.admit(bronze, 0.0, queue_depth=3, brownout=False)
    assert ctl.admit(bronze, 0.0, queue_depth=4, brownout=False)  # token 1
    assert not ctl.admit(bronze, 0.0, queue_depth=4, brownout=False)
    assert ctl.shed == 1


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------

def test_slo_accounting_counts_violations_against_budget():
    acct = SloAccounting(DEFAULT_TENANTS)
    gold = DEFAULT_TENANTS[0]
    for __ in range(99):
        acct.record(gold, gold.slo_p99_ns / 2.0)
    acct.record(gold, gold.slo_p99_ns * 3.0)             # one violation
    cell = acct.cell(gold)
    assert cell.requests == 100
    assert cell.violations == 1
    assert cell.violation_rate == pytest.approx(0.01)
    assert cell.budget_used == pytest.approx(0.01 / gold.error_budget)


def test_slo_report_is_name_sorted_and_complete():
    acct = SloAccounting(DEFAULT_TENANTS)
    acct.record(DEFAULT_TENANTS[1], 1000.0)
    acct.record_shed(DEFAULT_TENANTS[2])
    names = [rep["tenant"] for rep in acct.report()]
    assert names == sorted(names)
    silver = next(r for r in acct.report() if r["tenant"] == "silver")
    assert silver["requests"] == 1 and silver["p99_ns"] > 0.0
    bronze = next(r for r in acct.report() if r["tenant"] == "bronze")
    assert bronze["shed"] == 1 and bronze["p99_ns"] == 0.0


def test_slo_accounting_autoregisters_adhoc_tenants():
    acct = SloAccounting(())
    acct.record(Tenant("walkin"), 5.0)
    assert acct.report()[0]["tenant"] == "walkin"


# ---------------------------------------------------------------------------
# the policy facade against a live platform
# ---------------------------------------------------------------------------

def _armed_stack(fault_spec=None, cfg=None, seed=7):
    platform = Platform(seed=seed)
    if fault_spec is not None:
        # arm_faults(str) would seed the plan from cfg.seed; parse with
        # the explicit seed so seed-sensitivity tests see distinct streams.
        platform.arm_faults(FaultPlan.parse(fault_spec, seed=seed))
    engine = OffloadEngine(platform)
    policy = ResiliencePolicy(engine, cfg)
    return platform, engine, policy


def test_policy_arms_health_probing():
    __, engine, policy = _armed_stack()
    assert engine.health.probe_interval_ns == \
        policy.cfg.breaker_probe_interval_ns


def test_offload_op_clean_path_feeds_hedge_stats():
    platform, __, policy = _armed_stack()
    for __i in range(3):
        report = platform.sim.run_process(policy.offload_op("compress"))
        assert isinstance(report, OffloadReport)
    assert policy.hedges_fired == 0
    assert policy.cpu_fallbacks == 0
    assert policy._completion_stats.count == 3
    assert policy.breaker.state is BreakerState.CLOSED


def test_hedge_delay_uses_floor_then_quantile():
    platform, __, policy = _armed_stack()
    assert policy.hedge_delay_ns() == pytest.approx(policy.cfg.hedge_floor_ns)
    for __i in range(policy.cfg.hedge_min_samples):
        platform.sim.run_process(policy.offload_op("compress"))
    delay = policy.hedge_delay_ns()
    p99 = policy._completion_stats.percentile(
        policy.cfg.hedge_quantile * 100.0)
    assert delay == max(policy.cfg.hedge_floor_ns,
                        policy.cfg.hedge_multiplier * p99)


def test_hedge_backup_wins_when_device_hangs():
    platform, engine, policy = _armed_stack("device_hang@t=0")
    report = platform.sim.run_process(policy.offload_op("compress"))
    assert report.transport == "cpu"         # the backup's result
    assert policy.hedges_fired == 1
    assert policy.hedge_wins == 1
    platform.sim.run()                       # drain the abandoned primary
    assert policy.breaker.consecutive_failures > 0 \
        or policy.breaker.state is not BreakerState.CLOSED


def test_breaker_open_during_inflight_hedge_then_fast_fallback():
    """Interaction corner: an abandoned primary's late failure trips the
    breaker while its own hedge already returned; the next operation
    must fail fast to the cpu path without hedging at all."""
    cfg = ResilienceConfig(breaker_threshold=1)
    platform, engine, policy = _armed_stack("device_hang@t=0", cfg)
    report = platform.sim.run_process(policy.offload_op("compress"))
    assert report.transport == "cpu"
    platform.sim.run()                       # the primary fails in the wake
    assert policy.breaker.state is BreakerState.OPEN
    assert policy.breaker.trips == 1
    hedges_before = policy.hedges_fired
    report2 = platform.sim.run_process(policy.offload_op("compress"))
    assert report2.transport == "cpu"
    assert policy.cpu_fallbacks == 1         # breaker said no
    assert policy.hedges_fired == hedges_before   # no hedge race at all


def test_hang_with_scheduled_repair_recovers_the_fast_path():
    """Interaction corner: device_hang mid-run with a repair scheduled —
    the breaker opens, the repair pulls the probe forward, and the
    probe re-admits the cxl path."""
    cfg = ResilienceConfig(breaker_threshold=1)
    platform, engine, policy = _armed_stack(
        "device_hang@t=0,device_repair@t=1ms", cfg)
    report = platform.sim.run_process(policy.offload_op("compress"))
    assert report.transport == "cpu"
    platform.sim.run()                       # primary fails; repair at 1 ms
    assert policy.repairs_seen == 1
    assert platform.sim.now >= 1e6
    # The repair pulled the probe to the repair instant, so the next
    # operation is the HALF_OPEN probe — and the device is healthy now.
    report2 = platform.sim.run_process(policy.offload_op("compress"))
    assert report2.transport == "cxl"
    assert policy.breaker.state is BreakerState.CLOSED
    assert policy.breaker.probes >= 1
    assert engine.health.state is HealthState.HEALTHY


def test_bulk_demotion_stats_with_resilience_armed():
    """Armed resilience + armed faults: the fast path demotes every
    train to the per-line path (BULK_STATS fallbacks) and the policy-routed
    offload still completes."""
    BULK_STATS.reset()
    with flags.override(bulk=True):
        platform, __, policy = _armed_stack("link_crc=0.0")
        report = platform.sim.run_process(policy.offload_op("compress"))
    assert report.transport == "cxl"
    snap = BULK_STATS.snapshot()
    assert sum(snap["fallbacks"].values()) > 0
    assert snap["total_batches"] == 0    # every train demoted


def test_policy_runs_are_deterministic():
    def counters(seed):
        platform, __, policy = _armed_stack("offload_drop=0.2", seed=seed)
        for __i in range(20):
            platform.sim.run_process(policy.offload_op("compress"))
        platform.sim.run()
        return (policy.snapshot(), platform.sim.now)

    assert counters(11) == counters(11)
    assert counters(11) != counters(12)


def test_admit_records_sheds_in_the_tenant_ledger():
    cfg = ResilienceConfig(brownout_burst=1.0)
    __, __e, policy = _armed_stack(cfg=cfg)
    bronze = DEFAULT_TENANTS[2]
    policy.breaker.state = BreakerState.OPEN           # force brownout
    results = [policy.admit(bronze) for __i in range(5)]
    assert results[0] and not all(results)             # burst then shed
    assert policy.slo.cell(bronze).shed == results.count(False)
