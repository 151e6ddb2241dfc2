"""Per-request process reference: the open-loop client as it spawned
one generator process per request.

:class:`~repro.apps.latency.OpenLoopClient` serves each request as
engine callbacks (``_Request.arrive``/``granted``/``served``).  This
module keeps the generator process those callbacks replace: a spawn,
a core acquire, a service ``Timeout``, direct reclaim run inline by
``yield from``, then release and record.  Both must queue the same
entries in the same ``(time, seq)`` order, so every sample, counter,
final clock reading and sequence number compares ``==``.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.apps.latency import ALLOC_PROBABILITY, OpenLoopClient
from repro.apps.ycsb import YcsbOp
from repro.sim.engine import Timeout


class OracleOpenLoopClient(OpenLoopClient):
    """An open-loop client that spawns one process per request."""

    def run(self, until_ns: float) -> Generator[Any, Any, None]:
        sim = self.node.sim
        while sim.now < until_ns:
            yield Timeout(self.rng.exponential(self.interarrival_ns))
            request = self.workload.next_request()
            if self.policy.armed and not self.policy.admit(self.tenant):
                self.shed += 1
                continue
            sim.spawn(self._request(request.op, request.key), "redis.request")

    def _request(self, op: YcsbOp, key: str) -> Generator[Any, Any, None]:
        sim = self.node.sim
        arrived = sim.now
        yield self.core.acquire()
        try:
            service = self.server.service_ns(op) * self.node.service_factor()
            yield Timeout(service)
            self.node.app_core_busy_ns += service
            if self.functional:
                self._execute(op, key)
            else:
                self.server.requests_served += 1
            if (op is not YcsbOp.READ
                    and self.direct_reclaim is not None
                    and self.rng.random() < ALLOC_PROBABILITY):
                granted = self.node.pressure.consume(1)
                if self.node.pressure.below_min or granted == 0:
                    self.direct_reclaim_hits += 1
                    yield from self.direct_reclaim(self.core)
        finally:
            self.core.release()
        latency = sim.now - arrived
        self.stats.record(latency)
        if self.policy.armed:
            self.policy.record_request(self.tenant, latency)
