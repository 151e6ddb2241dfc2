"""Tests for the server node and memory-pressure accounting."""

from __future__ import annotations

import pytest

from repro.apps.node import MemoryPressure, ServerNode
from repro.errors import KernelError, WorkloadError
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng


def make_node(cores=4):
    sim = Simulator()
    return ServerNode(sim, DeterministicRng(1), cores)


def test_pressure_watermark_ordering_enforced():
    with pytest.raises(KernelError):
        MemoryPressure(100, 100, 50, 40, 60)


def test_pressure_consume_and_release():
    p = MemoryPressure.sized(1000)
    granted = p.consume(100)
    assert granted == 100
    assert p.free_pages == 900
    p.release(50)
    assert p.free_pages == 950
    p.release(10_000)
    assert p.free_pages == p.total_pages    # clamped


def test_pressure_partial_grant_when_exhausted():
    p = MemoryPressure.sized(1000)
    p.free_pages = 30
    assert p.consume(100) == 30
    assert p.free_pages == 0


def test_watermark_predicates():
    p = MemoryPressure(1000, 1000, 10, 20, 30)
    p.free_pages = 25
    assert not p.below_low and not p.above_high
    p.free_pages = 15
    assert p.below_low and not p.below_min
    p.free_pages = 5
    assert p.below_min
    p.free_pages = 31
    assert p.above_high


def test_node_requires_cores():
    sim = Simulator()
    with pytest.raises(WorkloadError):
        ServerNode(sim, DeterministicRng(1), 0)


def test_round_robin_covers_all_cores():
    node = make_node(cores=3)
    picked = [node.next_core_rr() for __ in range(6)]
    assert picked[:3] == node.cores
    assert picked[3:] == node.cores


def test_core_indexing_wraps():
    node = make_node(cores=3)
    assert node.core(4) is node.cores[1]


def test_pollution_stacking():
    node = make_node()
    assert node.service_factor() == 1.0
    node.pollute_start("zswap", 0.3)
    node.pollute_start("ksm", 0.1)
    assert node.service_factor() == pytest.approx(1.4)
    node.pollute_stop("zswap")
    assert node.service_factor() == pytest.approx(1.1)
    node.pollute_stop("ksm")
    assert not node.pollution_active()


def test_pollution_underflow_rejected():
    node = make_node()
    with pytest.raises(WorkloadError):
        node.pollute_stop("zswap")


def test_nested_same_source_pollution():
    node = make_node()
    node.pollute_start("zswap", 0.2)
    node.pollute_start("zswap", 0.2)
    assert node.service_factor() == pytest.approx(1.2)  # weight, not sum
    node.pollute_stop("zswap")
    assert node.service_factor() == pytest.approx(1.2)  # still one active
    node.pollute_stop("zswap")
    assert node.service_factor() == 1.0


def test_service_factor_is_the_per_request_sum():
    """The stored factor is the float a sum over the active polluters,
    in first-start order, gives at every point of a start/stop
    sequence (weights chosen so the order shows in the last bit)."""
    node = make_node()
    weights = {"zswap": 0.1, "ksm": 0.2, "kswapd": 0.7, "dma": 1e-17}
    rng = DeterministicRng(5)
    active = {source: 0 for source in weights}
    started: list = []
    for __ in range(400):
        source = sorted(weights)[rng.randint(0, len(weights))]
        if active[source] and rng.random() < 0.5:
            node.pollute_stop(source)
            active[source] -= 1
        else:
            node.pollute_start(source, weights[source])
            active[source] += 1
            if source not in started:
                started.append(source)
        expected = 1.0
        for s in started:
            if active[s] > 0:
                expected += weights[s]
        assert node.service_factor() == expected
