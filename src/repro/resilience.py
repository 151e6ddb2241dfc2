"""repro.resilience: request-level graceful degradation for offload.

PR 1's per-command retry keeps a *single* offload alive through a
transient fault; this layer keeps the *service* alive through device
death and fault storms — the production bar the multi-tenant
cooperative-computing story needs.  Four cooperating mechanisms, all
deterministic (every decision reads only the simulated clock and seeded
state, so armed runs are byte-identical at any ``--jobs`` count):

:class:`CircuitBreaker`
    fronts the cxl transport per device.  CLOSED passes traffic
    through; ``failure_threshold`` consecutive offload failures trip it
    OPEN, after which operations go straight to the cpu path with zero
    waiting.  A deterministic probe timer (backed off per failed probe)
    admits one HALF_OPEN trial; its outcome re-closes or re-opens the
    breaker.  Scheduled ``device_repair``/``link_up`` events
    (:mod:`repro.faults`) pull the next probe forward so recovery is
    storm-driven, not just timer-driven.

hedged requests (:meth:`ResiliencePolicy.offload_op`)
    every policy-routed offload races the cxl attempt against a cpu
    backup fired after a hedge delay derived from the *observed* cxl
    completion P99 (streaming estimator; a floor covers the cold
    start).  First completion wins; the losing timer is cancelled (an
    O(1) tombstone in the engine's deadline buckets), and an abandoned
    primary still reports its outcome to the breaker when it eventually
    resolves.

:class:`AdmissionController`
    per-tenant QoS load shedding.  While the breaker is not CLOSED
    (brownout) or the doorbell backlog exceeds a watermark, priority-0
    (gold) tenants pass freely and lower priorities must win a token
    from a deterministic token bucket — shed requests cost zero
    simulated work.

:class:`SloAccounting`
    per-tenant streaming P50/P99/P99.9
    (:class:`~repro.sim.stats.StreamingLatencyStats`), SLO-violation
    counts against an error budget, and the shed/hedge/breaker-trip
    counters the ``ext_degradation`` experiment reports.

Disarmed cost is zero by the NO_FAULTS pattern: components default to
:data:`NO_RESILIENCE`, whose ``armed`` attribute is the only thing the
hot paths ever read, so a run without a policy is bit-identical to one
built before this module existed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Sequence

from repro.errors import ConfigError, FaultError
from repro.sim.stats import StreamingLatencyStats
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.offload import OffloadEngine, OffloadReport


# ---------------------------------------------------------------------------
# tenants and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tenant:
    """One QoS class sharing the offload device.

    ``priority`` 0 is gold — never shed.  ``slo_p99_ns`` is the target
    the accounting judges each request against; ``error_budget`` is the
    tolerated fraction of violating requests (SRE-style).
    """

    name: str
    priority: int = 1
    slo_p99_ns: float = us(150.0)
    error_budget: float = 0.01

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ConfigError(f"tenant priority must be >= 0: {self}")
        if self.slo_p99_ns <= 0:
            raise ConfigError(f"tenant SLO must be positive: {self}")
        if not 0.0 < self.error_budget <= 1.0:
            raise ConfigError(f"error budget must be in (0, 1]: {self}")


#: The ambient tenant for callers that don't segment their traffic.
DEFAULT_TENANT = Tenant("default", priority=1)

#: The three-class split the degradation experiment uses.
DEFAULT_TENANTS = (
    Tenant("gold", priority=0, slo_p99_ns=us(150.0), error_budget=0.001),
    Tenant("silver", priority=1, slo_p99_ns=us(250.0), error_budget=0.01),
    Tenant("bronze", priority=2, slo_p99_ns=us(400.0), error_budget=0.05),
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Every knob of the degradation layer (docs/RESILIENCE.md)."""

    #: consecutive cxl failures that trip the breaker OPEN
    breaker_threshold: int = 3
    #: delay from trip (or failed probe) to the next HALF_OPEN probe
    breaker_probe_interval_ns: float = us(200.0)
    #: multiplier applied to the probe interval per failed probe
    breaker_probe_backoff: float = 2.0
    #: completion quantile the hedge delay chases (0.99 = P99)
    hedge_quantile: float = 0.99
    #: observed cxl completions needed before the quantile is trusted
    hedge_min_samples: int = 24
    #: hedge delay = multiplier * observed quantile
    hedge_multiplier: float = 1.5
    #: hedge delay before enough samples exist (and the delay's floor)
    hedge_floor_ns: float = 30_000.0
    #: doorbell backlog (inflight commands) that triggers shedding
    shed_queue_watermark: int = 8
    #: brownout token refill rate for non-gold tenants (tokens per ns)
    brownout_rate_per_ns: float = 1.0 / us(50.0)
    #: token bucket burst capacity
    brownout_burst: float = 4.0

    def __post_init__(self) -> None:
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}")
        if self.breaker_probe_interval_ns <= 0:
            raise ConfigError("breaker_probe_interval_ns must be positive: "
                              f"{self.breaker_probe_interval_ns}")
        if self.breaker_probe_backoff < 1.0:
            raise ConfigError(
                f"breaker_probe_backoff must be >= 1: "
                f"{self.breaker_probe_backoff}")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ConfigError(
                f"hedge_quantile must be in (0, 1): {self.hedge_quantile}")
        if self.hedge_min_samples < 5:
            raise ConfigError(
                f"hedge_min_samples must be >= 5: {self.hedge_min_samples}")
        if self.hedge_multiplier <= 0 or self.hedge_floor_ns <= 0:
            raise ConfigError("hedge multiplier and floor must be positive")
        if self.shed_queue_watermark < 1:
            raise ConfigError(
                f"shed_queue_watermark must be >= 1: "
                f"{self.shed_queue_watermark}")
        if self.brownout_rate_per_ns <= 0 or self.brownout_burst < 1:
            raise ConfigError("brownout token bucket needs rate > 0 and "
                              "burst >= 1")


# ---------------------------------------------------------------------------
# the inert singleton (disarmed = zero cost)
# ---------------------------------------------------------------------------


class _NoResilience:
    """The disarmed policy: components test one attribute and proceed
    exactly as they did before this layer existed."""

    __slots__ = ()
    armed = False

    def admit(self, tenant: Optional[Tenant] = None) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_RESILIENCE"

    def __reduce__(self) -> str:
        # Restore to the module global so disarmed-policy checks that
        # compare identity survive a checkpoint round-trip.
        return "NO_RESILIENCE"


NO_RESILIENCE = _NoResilience()


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class BreakerState(enum.Enum):
    """The classic three-state breaker (Nygard, *Release It!*)."""

    CLOSED = "closed"          # traffic flows; failures counted
    OPEN = "open"              # fail fast to the cpu path
    HALF_OPEN = "half-open"    # one probe in flight

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN breaker with deterministic probing.

    Pure poll-based state machine: no timers of its own — every
    decision happens inside :meth:`allow` / :meth:`record_failure` /
    :meth:`record_success` with the caller's clock, which keeps the
    armed event trajectory independent of how many breakers exist.
    """

    def __init__(self, threshold: int, probe_interval_ns: float,
                 probe_backoff: float = 2.0):
        self.threshold = threshold
        self.probe_interval_ns = probe_interval_ns
        self.probe_backoff = probe_backoff
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.probes = 0
        self.opened_at_ns = 0.0
        self.next_probe_at_ns = float("inf")
        self._backoff_mult = 1.0
        self.transitions: list[tuple[float, BreakerState]] = []

    def _move(self, now: float, new: BreakerState) -> None:
        if new is not self.state:
            self.transitions.append((now, new))
            self.state = new

    def allow(self, now: float) -> bool:
        """May the next operation try the primary (cxl) path?

        OPEN admits exactly one probe once its deadline passes (moving
        to HALF_OPEN); concurrent operations during the probe — and all
        traffic before the deadline — go straight to the backup path.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN and now >= self.next_probe_at_ns:
            self.probes += 1
            self.next_probe_at_ns = float("inf")
            self._move(now, BreakerState.HALF_OPEN)
            return True
        return False

    def record_success(self, now: float) -> None:
        """A primary-path operation completed cleanly."""
        if self.state is not BreakerState.CLOSED:
            # Probe success — or a late success from an abandoned
            # primary while OPEN: either way the device answered.
            self._backoff_mult = 1.0
            self.next_probe_at_ns = float("inf")
            self._move(now, BreakerState.CLOSED)
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """A primary-path operation failed."""
        if self.state is BreakerState.HALF_OPEN:
            self._backoff_mult *= self.probe_backoff
            self._open(now)
        elif self.state is BreakerState.CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.threshold:
                self._backoff_mult = 1.0
                self._open(now)
        # OPEN: late failures from abandoned primaries change nothing.

    def _open(self, now: float) -> None:
        self.trips += 1
        self.opened_at_ns = now
        self.next_probe_at_ns = (
            now + self.probe_interval_ns * self._backoff_mult)
        self._move(now, BreakerState.OPEN)

    def note_repair(self, now: float) -> None:
        """A scheduled repair landed: pull the next probe to *now*."""
        if self.state is BreakerState.OPEN:
            self._backoff_mult = 1.0
            self.next_probe_at_ns = now


# ---------------------------------------------------------------------------
# load shedding
# ---------------------------------------------------------------------------


class TokenBucket:
    """Deterministic token bucket with lazy refill from the sim clock."""

    __slots__ = ("rate_per_ns", "burst", "level", "last_ns",
                 "granted", "denied")

    def __init__(self, rate_per_ns: float, burst: float):
        self.rate_per_ns = rate_per_ns
        self.burst = burst
        self.level = burst
        self.last_ns = 0.0
        self.granted = 0
        self.denied = 0

    def try_take(self, now: float) -> bool:
        elapsed = now - self.last_ns
        if elapsed > 0:
            self.level = min(self.burst,
                             self.level + elapsed * self.rate_per_ns)
            self.last_ns = now
        if self.level >= 1.0:
            self.level -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False


class AdmissionController:
    """Per-tenant admission: free in fair weather, token-gated for
    non-gold tenants during brownout or backlog."""

    def __init__(self, cfg: ResilienceConfig):
        self.cfg = cfg
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted = 0
        self.shed = 0

    def _bucket(self, tenant: Tenant) -> TokenBucket:
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = TokenBucket(self.cfg.brownout_rate_per_ns,
                                 self.cfg.brownout_burst)
            self._buckets[tenant.name] = bucket
        return bucket

    def admit(self, tenant: Tenant, now: float, queue_depth: int,
              brownout: bool) -> bool:
        if not brownout and queue_depth < self.cfg.shed_queue_watermark:
            self.admitted += 1
            return True
        if tenant.priority <= 0:
            self.admitted += 1          # gold is never shed
            return True
        if self._bucket(tenant).try_take(now):
            self.admitted += 1
            return True
        self.shed += 1
        return False


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------


class TenantSlo:
    """Per-tenant request ledger: streaming tail points + budget."""

    __slots__ = ("tenant", "stats", "requests", "shed", "violations")

    def __init__(self, tenant: Tenant):
        self.tenant = tenant
        self.stats = StreamingLatencyStats()       # P50/P99/P99.9
        self.requests = 0
        self.shed = 0
        self.violations = 0

    @property
    def violation_rate(self) -> float:
        return self.violations / self.requests if self.requests else 0.0

    @property
    def budget_used(self) -> float:
        """Fraction of the error budget consumed (>1 = SLO blown)."""
        return self.violation_rate / self.tenant.error_budget

    def report(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant.name,
            "priority": self.tenant.priority,
            "requests": self.requests,
            "shed": self.shed,
            "p50_ns": self.stats.percentile_or(50.0),
            "p99_ns": self.stats.percentile_or(99.0),
            "p999_ns": self.stats.percentile_or(99.9),
            "slo_p99_ns": self.tenant.slo_p99_ns,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "budget_used": self.budget_used,
        }


class SloAccounting:
    """The per-tenant ledgers, keyed by tenant name (auto-registering
    so ad-hoc tenants still get counted)."""

    def __init__(self, tenants: Sequence[Tenant] = ()):
        self._cells: Dict[str, TenantSlo] = {
            t.name: TenantSlo(t) for t in tenants}

    def cell(self, tenant: Tenant) -> TenantSlo:
        got = self._cells.get(tenant.name)
        if got is None:
            got = TenantSlo(tenant)
            self._cells[tenant.name] = got
        return got

    def record(self, tenant: Tenant, latency_ns: float) -> None:
        cell = self.cell(tenant)
        cell.requests += 1
        cell.stats.record(latency_ns)
        if latency_ns > tenant.slo_p99_ns:
            cell.violations += 1

    def record_shed(self, tenant: Tenant) -> None:
        self.cell(tenant).shed += 1

    def report(self) -> list[Dict[str, Any]]:
        return [self._cells[name].report()
                for name in sorted(self._cells)]


# ---------------------------------------------------------------------------
# the policy facade
# ---------------------------------------------------------------------------


class _OpFailed:
    """Sentinel return of a shielded attempt: carries the exception
    instead of failing the process, so hedge races never propagate a
    failure through ``any_of``."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


_OP_METHODS = {
    "compress": "compress_page",
    "decompress": "decompress_page",
    "hash": "hash_page",
    "compare": "compare_pages",
}


class ResiliencePolicy:
    """One armed degradation policy wrapping one :class:`OffloadEngine`.

    Construction arms the engine's health monitor for probing (so a
    FAILED device can recover) and registers a repair listener on the
    platform's fault plan (so ``device_repair``/``link_up`` pull the
    breaker's and the monitor's next probe forward).
    """

    armed = True

    def __init__(self, engine: "OffloadEngine",
                 cfg: Optional[ResilienceConfig] = None,
                 tenants: Sequence[Tenant] = DEFAULT_TENANTS):
        self.engine = engine
        self.cfg = cfg = cfg or ResilienceConfig()
        self.breaker = CircuitBreaker(cfg.breaker_threshold,
                                      cfg.breaker_probe_interval_ns,
                                      cfg.breaker_probe_backoff)
        self.admission = AdmissionController(cfg)
        self.slo = SloAccounting(tenants)
        # Observed cxl completion times feed the hedge delay.
        self._completion_stats = StreamingLatencyStats(
            quantiles=(0.50, cfg.hedge_quantile))
        self.hedges_fired = 0
        self.hedge_wins = 0          # backup finished first
        self.hedge_losses = 0        # primary finished first after all
        self.cpu_fallbacks = 0       # breaker open / failed primary
        self.repairs_seen = 0
        # Arm the health monitor's probe path so FAILED isn't terminal.
        engine.health.probe_interval_ns = cfg.breaker_probe_interval_ns
        engine.health.probe_backoff = cfg.breaker_probe_backoff
        faults = engine.p.faults
        listeners = getattr(faults, "repair_listeners", None)
        if listeners is not None:
            listeners.append(self._on_repair)

    # -- plumbing ----------------------------------------------------------

    @property
    def sim(self):
        return self.engine.p.sim

    def _on_repair(self, name: str, now: float) -> None:
        self.repairs_seen += 1
        self.breaker.note_repair(now)
        self.engine.health.note_repair(now)

    def snapshot(self) -> Dict[str, Any]:
        """The counter block experiments report."""
        return {
            "hedges_fired": self.hedges_fired,
            "hedge_wins": self.hedge_wins,
            "hedge_losses": self.hedge_losses,
            "cpu_fallbacks": self.cpu_fallbacks,
            "shed": self.admission.shed,
            "admitted": self.admission.admitted,
            "breaker_trips": self.breaker.trips,
            "breaker_probes": self.breaker.probes,
            "breaker_state": self.breaker.state.value,
            "repairs_seen": self.repairs_seen,
        }

    # -- admission (app-facing) --------------------------------------------

    def admit(self, tenant: Optional[Tenant] = None) -> bool:
        """Admission decision for one request; sheds are counted
        against the tenant's ledger.  Zero simulated time either way."""
        tenant = tenant or DEFAULT_TENANT
        brownout = self.breaker.state is not BreakerState.CLOSED
        ok = self.admission.admit(tenant, self.sim.now,
                                  self.engine.doorbell.queue_depth,
                                  brownout)
        if not ok:
            self.slo.record_shed(tenant)
        return ok

    def record_request(self, tenant: Optional[Tenant],
                       latency_ns: float) -> None:
        self.slo.record(tenant or DEFAULT_TENANT, latency_ns)

    # -- hedged offload (kernel-facing) ------------------------------------

    def hedge_delay_ns(self) -> float:
        """How long to trust the primary before firing the cpu backup."""
        stats = self._completion_stats
        if stats.count < self.cfg.hedge_min_samples:
            return self.cfg.hedge_floor_ns
        delay = (self.cfg.hedge_multiplier
                 * stats.percentile(self.cfg.hedge_quantile * 100.0))
        return max(self.cfg.hedge_floor_ns, delay)

    def offload_op(self, op: str, **kwargs: Any
                   ) -> Generator[Any, Any, "OffloadReport"]:
        """One policy-routed offload: breaker -> hedged race -> fallback.

        Timed process.  Never raises :class:`FaultError` — the cpu path
        is the backstop — so callers need no try/except of their own.
        """
        sim = self.sim
        method = getattr(self.engine, _OP_METHODS[op])
        if not self.breaker.allow(sim.now):
            self.cpu_fallbacks += 1
            return (yield from method("cpu", **kwargs))
        started = sim.now
        primary = sim.spawn(self._shielded_cxl(method, kwargs, started),
                            f"resilience.{op}")
        hedge = sim.timer(self.hedge_delay_ns())
        index, value = yield sim.any_of([primary.done, hedge.event])
        if index == 0:
            # Primary resolved inside the hedge window: cancel the
            # loser (an O(1) tombstone in its deadline bucket).
            hedge.cancel()
            if not isinstance(value, _OpFailed):
                return value
            self.cpu_fallbacks += 1
            return (yield from method("cpu", **kwargs))
        # Hedge delay elapsed with the primary still in flight.
        self.hedges_fired += 1
        backup = sim.spawn(self._shielded(method("cpu", **kwargs)),
                           f"resilience.{op}.hedge")
        index, value = yield sim.any_of([primary.done, backup.done])
        if index == 0:
            if not isinstance(value, _OpFailed):
                self.hedge_losses += 1   # primary won; backup finishes idle
                return value
            value = yield backup.done    # primary failed mid-hedge
        else:
            self.hedge_wins += 1
        if isinstance(value, _OpFailed):
            raise value.exc              # cpu backstop failed: re-raise
        return value

    def _shielded_cxl(self, method: Any, kwargs: Dict[str, Any],
                      started: float) -> Generator[Any, Any, Any]:
        """The primary attempt: runs the cxl path, reports its outcome
        to the breaker *at completion time* (abandoned primaries still
        count — essential for tripping during hang storms, where the
        backup always wins the race), and converts failure into an
        :class:`_OpFailed` sentinel so racing waiters never see it."""
        sim = self.sim
        try:
            report = yield from method("cxl", **kwargs)
        except FaultError as exc:
            self.breaker.record_failure(sim.now)
            return _OpFailed(exc)
        self.breaker.record_success(sim.now)
        self._completion_stats.record(sim.now - started)
        return report

    def _shielded(self, gen: Generator) -> Generator[Any, Any, Any]:
        """Failure-shielding wrapper for the backup attempt."""
        try:
            result = yield from gen
        except FaultError as exc:     # pragma: no cover - cpu can't fault
            return _OpFailed(exc)
        return result
