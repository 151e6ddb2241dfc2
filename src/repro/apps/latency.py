"""Open-loop latency clients (SVII, tail latency).

YCSB clients issue requests at a Poisson rate regardless of completions
(open loop), so queueing delays show up fully in the measured latency —
the standard way to expose tail effects.  p99 is read from the recorded
distribution, normalized against a no-feature baseline by the harness.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.apps.kvs import RedisServer
from repro.apps.node import ServerNode
from repro.apps.ycsb import YcsbOp, YcsbWorkload
from repro.errors import WorkloadError
from repro.sim.engine import Actor, Process, Timeout
from repro.sim.resources import Resource
from repro.resilience import NO_RESILIENCE, Tenant
from repro.sim.rng import DeterministicRng
from repro.sim.stats import LatencyRecorder, LatencyStats

# Probability that an UPDATE/INSERT needs a fresh page (slab refill).
ALLOC_PROBABILITY = 0.06


class OpenLoopClient:
    """Drives one Redis server pinned to one core."""

    def __init__(self, node: ServerNode, server: RedisServer, core: Resource,
                 workload: YcsbWorkload, rng: DeterministicRng,
                 rate_per_s: float,
                 direct_reclaim: Optional[Callable[[Resource],
                                                   Generator]] = None,
                 functional: bool = False,
                 stats: Optional[LatencyRecorder] = None,
                 tenant: Optional[Tenant] = None,
                 policy: Any = NO_RESILIENCE):
        if rate_per_s <= 0:
            raise WorkloadError(f"arrival rate must be positive: {rate_per_s}")
        self.node = node
        self.server = server
        self.core = core
        self.workload = workload
        self.rng = rng
        self.interarrival_ns = 1e9 / rate_per_s
        self.direct_reclaim = direct_reclaim
        # functional mode really executes each request against the KVS,
        # so end-to-end runs can assert read-your-writes alongside p99.
        self.functional = functional
        # Injectable so scale sweeps can share one O(1)-memory streaming
        # recorder across every client; per-client exact stats otherwise.
        self.stats = LatencyStats() if stats is None else stats
        # QoS identity + degradation policy: an armed policy may shed
        # this client's arrivals during brownout and keeps the tenant's
        # SLO ledger; the NO_RESILIENCE default admits everything with
        # a single attribute test.
        self.tenant = tenant
        self.policy = policy
        self.shed = 0
        self.direct_reclaim_hits = 0
        self.functional_errors = 0
        self._written: dict[str, bytes] = {}

    # -- driving ------------------------------------------------------------------

    def run(self, until_ns: float) -> Generator[Any, Any, None]:
        """Generate Poisson arrivals until the deadline.

        Armed admission control sheds at *arrival* — a shed request
        costs zero simulated work (no core acquire, no service), which
        is the whole point of load shedding."""
        sim = self.node.sim
        while sim.now < until_ns:
            yield Timeout(self.rng.exponential(self.interarrival_ns))
            request = self.workload.next_request()
            if self.policy.armed and not self.policy.admit(self.tenant):
                self.shed += 1
                continue
            sim.call_soon(_Request(self, request.op, request.key).arrive)

    def _execute(self, op: YcsbOp, key: str) -> None:
        """Really run the request against the KVS (functional mode)."""
        if op is YcsbOp.READ:
            value = self.server.execute(op, key)
            expected = self._written.get(key)
            if expected is not None and value != expected:
                self.functional_errors += 1
        else:
            value = self.workload.make_value()
            self.server.execute(op, key, value)
            self._written[key] = value


class _Request(Actor):
    """One request, served by engine callbacks rather than a process.

    The callbacks queue the same entries, in the same ``(time, seq)``
    order, as the generator process they replace (``docs/PERFORMANCE.md``,
    "KVS requests as callbacks"): :meth:`arrive` takes the spawn's
    first step, :meth:`granted` the resume on the core grant, and
    :meth:`served` the resume after the service timeout.  A request that
    enters direct reclaim finishes in a :class:`_Reclaim` process.  An
    exception here propagates out of :meth:`Simulator.run`.
    """

    __slots__ = ("client", "op", "key", "arrived", "service")

    # The race detector's label, as the process it replaces was named.
    name = "redis.request"

    def __init__(self, client: OpenLoopClient, op: YcsbOp, key: str):
        self.client = client
        self.op = op
        self.key = key

    def arrive(self) -> None:
        self.arrived = self.client.node.sim.now
        self.client.core.acquire().add_callback(self.granted)

    def granted(self, __: Any) -> None:
        client = self.client
        node = client.node
        self.service = service = \
            client.server.service_ns(self.op) * node.service_factor()
        node.sim.schedule(float(service), self.served)

    def served(self) -> None:
        client = self.client
        node = client.node
        node.app_core_busy_ns += self.service
        if client.functional:
            client._execute(self.op, self.key)
        else:
            client.server.requests_served += 1
        if (self.op is not YcsbOp.READ
                and client.direct_reclaim is not None
                and client.rng.random() < ALLOC_PROBABILITY):
            granted = node.pressure.consume(1)
            if node.pressure.below_min or granted == 0:
                # The allocation cannot be satisfied: this request
                # performs direct reclaim itself (SVI-A direct path),
                # its first step run inline as a `yield from` would.
                client.direct_reclaim_hits += 1
                _Reclaim(self, client.direct_reclaim)._step(None)
                return
        client.core.release()
        self._finish()

    def _reclaim(self, reclaim: Callable[[Resource], Generator]
                 ) -> Generator[Any, Any, None]:
        client = self.client
        try:
            yield from reclaim(client.core)
        finally:
            client.core.release()
        self._finish()

    def _finish(self) -> None:
        client = self.client
        latency = client.node.sim.now - self.arrived
        client.stats.record(latency)
        if client.policy.armed:
            client.policy.record_request(client.tenant, latency)


class _Reclaim(Process):
    """The rest of a request that entered direct reclaim: the reclaim
    generator, then the core release and the sample.  Its steps report
    as the request's actor, as the process it was part of did."""

    __slots__ = ("actor",)
    actor: _Request

    def __init__(self, request: _Request,
                 reclaim: Callable[[Resource], Generator]):
        super().__init__(request.client.node.sim, request._reclaim(reclaim),
                         request.name)
        self.actor = request
