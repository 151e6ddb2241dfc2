"""Fabric determinism: framing, conservative lookahead, total order."""

from __future__ import annotations

import pytest

from repro.rack.fabric import (Fabric, FabricConfig, FabricPort, Wire,
                               _encode_frame)


def test_config_enforces_conservative_lookahead():
    with pytest.raises(ValueError):
        FabricConfig(epoch_ns=500_000.0, base_ns=499_999.0)
    with pytest.raises(ValueError):
        FabricConfig(epoch_ns=0.0)
    with pytest.raises(ValueError):
        FabricConfig(per_byte_ns=-1.0)


def test_arrival_is_base_plus_serialization():
    cfg = FabricConfig(epoch_ns=100.0, base_ns=200.0, per_byte_ns=0.5)
    assert cfg.arrival_ns(1000.0, 10) == 1000.0 + 200.0 + 5.0


def test_port_frames_batches_and_sequences():
    cfg = FabricConfig()
    port = FabricPort(3, cfg)
    w0 = port.send_bulk(1, "req", [(7, 0.0), (8, 1.0)], send_ns=10.0)
    w1 = port.send_bulk(2, "rep", [(9, 2.0)], send_ns=11.0)
    assert (w0.seq, w1.seq) == (0, 1)
    assert w0.nbytes == cfg.header_bytes + 2 * cfg.item_bytes
    assert w1.nbytes == cfg.header_bytes + 1 * cfg.item_bytes
    assert port.sent_wires == 2 and port.sent_items == 3
    assert port.drain() == (w0, w1)
    assert port.drain() == ()          # drained
    with pytest.raises(ValueError):
        port.send_bulk(3, "req", [(1, 0.0)], send_ns=12.0)  # self-send


def test_deliveries_sorted_by_arrival_src_seq_regardless_of_push_order():
    """The total order (arrival, src, seq) is independent of which
    worker's outbox reached the switch first — the property that makes
    any shard interleaving byte-identical."""
    cfg = FabricConfig(epoch_ns=100.0, base_ns=100.0, per_byte_ns=0.0,
                       header_bytes=0, item_bytes=0)
    empty = _encode_frame("req", ())
    wires = [
        Wire(src=2, dst=0, kind="req", send_ns=0.0, seq=0, nbytes=0,
             count=0, frame=empty),
        Wire(src=1, dst=0, kind="req", send_ns=0.0, seq=0, nbytes=0,
             count=0, frame=empty),
        Wire(src=1, dst=0, kind="req", send_ns=0.0, seq=1, nbytes=0,
             count=0, frame=empty),
        Wire(src=1, dst=3, kind="rep", send_ns=50.0, seq=2, nbytes=0,
             count=0, frame=empty),
    ]
    def run(order):
        fabric = Fabric(cfg)
        fabric.push(order)
        return (fabric.deliveries(100.0, 200.0),
                fabric.deliveries(200.0, 300.0), fabric.in_flight)

    first = run(wires)
    second = run(list(reversed(wires)))
    assert first == second
    epoch1, epoch2, left = first
    # Same-arrival wires order by (src, seq) within their destination;
    # the late send (arrival 150) still lands inside the first window.
    assert [(w.src, w.seq) for w in epoch1[0]] == [(1, 0), (1, 1), (2, 0)]
    assert [w.seq for w in epoch1[3]] == [2]
    assert epoch2 == {}
    assert left == 0


def test_lookahead_means_no_same_epoch_delivery():
    """A wire sent during epoch k can never arrive inside epoch k."""
    cfg = FabricConfig(epoch_ns=100.0, base_ns=100.0, per_byte_ns=0.0)
    fabric = Fabric(cfg)
    port = FabricPort(0, cfg)
    port.send_bulk(1, "req", [(1, 0.0)], send_ns=99.9)  # end of epoch 0
    fabric.push(port.drain())
    assert fabric.deliveries(0.0, 100.0) == {}
    assert 1 in fabric.deliveries(100.0, 200.0)


def test_bounce_keeps_src_seq_unique_and_attributes_the_dead_host():
    cfg = FabricConfig()
    fabric = Fabric(cfg)
    port = FabricPort(0, cfg)
    wire = port.send_bulk(5, "req", [(1, 0.0)], send_ns=0.0)
    nack = fabric.bounce(wire, now_ns=500_000.0)
    assert nack.kind == "nack"
    assert nack.src == 5 and nack.dst == 0   # blamed on the dead host
    assert nack.payload == wire.payload
    assert nack.frame is wire.frame          # req and nack share a format
    assert nack.seq >= 1 << 40               # outside any port's range
    second = fabric.bounce(wire, now_ns=500_000.0)
    assert second.seq != nack.seq
    assert fabric.bounced_wires == 2
