"""Differential tests: requests served as engine callbacks against the
per-request generator process in ``tests/apps/request_oracle.py``.

Both clients run the same seeded scenario: a YCSB mix at some rate,
optionally functional, optionally with direct reclaim under pinned
memory pressure, optionally behind an armed admission policy, and
optionally beside a second process that holds the same core.  Every
latency sample, counter, the final clock and the engine's sequence
counter must compare ``==``.  With the race detector armed, the actor
each step reports must partition the steps the same way: one request,
one actor.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvs import RedisServer
from repro.apps.latency import OpenLoopClient
from repro.apps.node import ServerNode
from repro.apps.ycsb import YcsbWorkload
from repro.lint.races import RaceDetector, _label
from repro.sim.engine import Simulator, Timeout
from repro.sim.rng import DeterministicRng
from repro.sim.stats import LatencyStats
from repro.units import ms, us
from tests.apps.request_oracle import OracleOpenLoopClient

DURATION_NS = ms(2.0)


class SheddingPolicy:
    """An armed policy that sheds every ``every``-th arrival and keeps
    each recorded latency."""

    armed = True

    def __init__(self, every: int):
        self.every = every
        self.arrivals = 0
        self.records: list = []

    def admit(self, tenant) -> bool:
        self.arrivals += 1
        return self.arrivals % self.every != 0

    def record_request(self, tenant, latency: float) -> None:
        self.records.append((tenant, latency))


def scenario(client_cls, *, seed, rate, mix, functional, reclaim,
             shed_every, contender, races):
    """Run one client to completion; return everything observable."""
    sim = Simulator()
    if races:
        RaceDetector(sim).arm()
    rng = DeterministicRng(seed)
    node = ServerNode(sim, rng.fork(1), 2)
    trace: list = []

    class TracingServer(RedisServer):
        def service_ns(self, op):
            trace.append(("service", sim.current_actor))
            return super().service_ns(op)

    class TracingStats(LatencyStats):
        def record(self, latency_ns):
            trace.append(("record", sim.current_actor))
            super().record(latency_ns)

    direct = None
    if reclaim is not None:
        # Pinned below the min watermark: every allocation that fires
        # enters direct reclaim, which frees a few pages back.
        node.pressure.free_pages = node.pressure.min_pages - 2

        def reclaim_inline(held_core):
            # The shape of ReclaimDaemon.inline_reclaim: pollute, burn
            # the held core, optionally give it up for a device phase.
            trace.append(("reclaim", sim.current_actor))
            node.pollute_start("zswap", 0.3)
            try:
                yield Timeout(us(3.0))
                if reclaim == "device":
                    held_core.release()
                    try:
                        yield Timeout(us(7.0))
                    finally:
                        yield held_core.acquire()
                yield Timeout(us(1.5))
                trace.append(("reclaimed", sim.current_actor))
            finally:
                node.pollute_stop("zswap")
            node.pressure.release(1)

        direct = reclaim_inline

    policy = SheddingPolicy(shed_every) if shed_every else None
    extra = {} if policy is None else {"policy": policy, "tenant": "t0"}
    client = client_cls(
        node, TracingServer("r0", rng.fork(2)), node.core(0),
        YcsbWorkload(mix, rng.fork(3)), rng.fork(4), rate,
        direct_reclaim=direct, functional=functional, stats=TracingStats(),
        **extra)
    sim.spawn(client.run(DURATION_NS), "client")

    if contender:
        def hog():
            core = node.core(0)
            while sim.now < DURATION_NS:
                yield core.acquire()
                try:
                    yield Timeout(us(20.0))
                finally:
                    core.release()
                yield Timeout(us(55.0))

        sim.spawn(hog(), "hog")
    final = sim.run()

    # Actors compare by identity; number them by first appearance so the
    # two runs' partitions of steps into actors can be compared.
    index: dict = {}
    steps = [(kind, index.setdefault(id(actor), len(index)))
             for kind, actor in trace]
    labels = {_label(actor) for __, actor in trace} if races else set()
    return {
        "samples": list(client.stats._samples),
        "served": client.server.requests_served,
        "reclaims": client.direct_reclaim_hits,
        "shed": client.shed,
        "functional_errors": client.functional_errors,
        "core_busy": node.app_core_busy_ns,
        "free_pages": node.pressure.free_pages,
        "policy": None if policy is None else policy.records,
        "clock": final,
        "seq": sim._seq,
        "steps": steps,
        "labels": labels,
    }


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       rate=st.sampled_from((20_000.0, 90_000.0, 160_000.0)),
       mix=st.sampled_from(("a", "c", "d")),
       functional=st.booleans(),
       reclaim=st.sampled_from((None, "inline", "device")),
       shed_every=st.sampled_from((0, 3)),
       contender=st.booleans(),
       races=st.booleans())
def test_callback_requests_match_process_requests(
        seed, rate, mix, functional, reclaim, shed_every, contender, races):
    kwargs = dict(seed=seed, rate=rate, mix=mix, functional=functional,
                  reclaim=reclaim, shed_every=shed_every,
                  contender=contender, races=races)
    assert scenario(OpenLoopClient, **kwargs) \
        == scenario(OracleOpenLoopClient, **kwargs)


@pytest.mark.parametrize("reclaim", ["inline", "device"])
def test_one_request_reports_as_one_actor(reclaim):
    """Armed, every step of a request (grant, reclaim, record) reports
    the same actor under the process's label, and no two requests
    share one."""
    got = scenario(OpenLoopClient, seed=3, rate=90_000.0, mix="a",
                   functional=False, reclaim=reclaim, shed_every=0,
                   contender=True, races=True)
    assert got["reclaims"] > 0
    assert got["labels"] == {"redis.request"}
    kinds_by_actor: dict = {}
    for kind, actor in got["steps"]:
        kinds_by_actor.setdefault(actor, []).append(kind)
    assert len(kinds_by_actor) == len(got["samples"])
    for kinds in kinds_by_actor.values():
        assert kinds[0] == "service" and kinds[-1] == "record"
    assert any("reclaim" in kinds and "reclaimed" in kinds
               for kinds in kinds_by_actor.values())
