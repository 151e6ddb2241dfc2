"""Command trains (docs/PERFORMANCE.md): an offload command's doorbell
handshake replayed as arithmetic must match the per-line steps exactly.

Twin platforms run the same sequence of cxl offload commands with the
``bulk`` flag off and on, from the same pre-state of the command and
result lines, and must agree on every report field, the final clock,
every RNG state, the cache contents with states and LRU order, the link,
memory-controller and doorbell counters and queues, and the latency of
one per-line access issued afterwards.  Every refusal reason has a test
that triggers it, and the refused command still matches per-line.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flags
from repro.config import default_system
from repro.core.doorbell import Command, Completion
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.core.requests import D2HOp, HostOp
from repro.devices.accel_ip import CompressionIp
from repro.mem.coherence import LineState
from repro.sim.bulk import BULK_STATS
from repro.units import PAGE_SIZE

OPS = ("compress", "decompress", "hash", "compare")
STATES = (None, LineState.SHARED, LineState.EXCLUSIVE, LineState.MODIFIED)

PAGE = (b"obj-page|" * 64)[:512] + bytes(range(256)) * 6
PAGE = PAGE.ljust(PAGE_SIZE, b"\x00")
BLOB = CompressionIp.run(PAGE)


def _cache(cache):
    return ([(line.addr, line.state, line.poisoned) for line in cache.lines()],
            (cache.hits, cache.misses, cache.evictions, cache.writebacks))


def _fingerprint(p, engine):
    t2 = p.t2
    link, dcoh, db = t2.port.link, t2.dcoh, engine.doorbell
    return {
        "now": p.sim.now,
        "quiescent": p.sim.quiescent,
        "rng": (t2.lsu.rng.state(), p.core.rng.state(), p.rng.state()),
        "link": (link.messages, link.bytes_moved),
        "channels": [(ch.reads, ch.writes, ch.queued_writes)
                     for ch in p.home.mem.channels + t2.dev_mem.channels],
        "counters": (dcoh.d2h_count, dcoh.d2d_count, t2.h2d_reads,
                     t2.h2d_writes, t2.bias.switches_to_host),
        "doorbell": (db.submitted, db.completed, dict(db.inflight),
                     sorted(db._cpl_events), db.orphaned,
                     db.late_completions, db._next_tag,
                     len(db._commands), len(db._completions)),
        "dmc": _cache(dcoh.dmc),
        "hmc": _cache(dcoh.hmc),
        "llc": _cache(p.home.llc),
    }


def _run_op(engine, op, functional):
    if op == "compress":
        gen = engine.compress_page("cxl", PAGE if functional else None)
    elif op == "decompress":
        gen = engine.decompress_page("cxl", BLOB if functional else None,
                                     stored_bytes=len(BLOB))
    elif op == "hash":
        gen = engine.hash_page("cxl", PAGE if functional else None)
    else:
        gen = engine.compare_pages("cxl", PAGE if functional else None,
                                   PAGE if functional else None)
    return engine.p.sim.run_process(gen)


def _prime(p, engine, cmd_dmc, cmd_llc, result_dmc, result_llc, victim):
    """Set the pre-state of the command lines, the result line, and a
    line sharing the first command line's DMC set."""
    db, dcoh = engine.doorbell, p.t2.dcoh
    if victim is not None:
        dcoh.dmc.insert(db._cmd_lines[0] - dcoh.dmc.num_sets * 64, victim)
    for addr, dmc_state, llc_state in (
            (db._cmd_lines[0], cmd_dmc[0], cmd_llc[0]),
            (db._cmd_lines[1], cmd_dmc[1], cmd_llc[1]),
            (db._result_line, result_dmc, result_llc)):
        if dmc_state is not None:
            dcoh.dmc.insert(addr, dmc_state)
        if llc_state is not None:
            p.home.preload_llc(addr, llc_state)


def _twin(bulk, seed, ops, functional, prime=None, cfg=None, body=None):
    """One twin: run ``ops`` (or ``body``) and one per-line access of each
    handshake kind afterwards; return everything observable."""
    with flags.override(bulk=bulk):
        p = Platform(cfg, seed=seed)
        engine = OffloadEngine(p, functional=functional)
        if prime is not None:
            prime(p, engine)
        reports = ([_run_op(engine, op, functional) for op in ops]
                   if body is None else body(p, engine))
        db, t2 = engine.doorbell, p.t2
        after = (p.sim.run_process(t2.lsu.d2d(D2HOp.CS_READ,
                                              db._cmd_lines[0])),
                 p.sim.run_process(p.core.cxl_op(HostOp.LOAD,
                                                 db._result_line, t2)))
        return reports, after, _fingerprint(p, engine)


def _both(seed, ops, functional=False, **kw):
    off = _twin(False, seed, ops, functional, **kw)
    BULK_STATS.reset()
    on = _twin(True, seed, ops, functional, **kw)
    return off, on, BULK_STATS.snapshot()


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=6),
       functional=st.booleans(),
       cmd_dmc=st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)),
       cmd_llc=st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)),
       result_dmc=st.sampled_from(STATES),
       result_llc=st.sampled_from(STATES),
       victim=st.sampled_from((None, LineState.SHARED, LineState.MODIFIED)),
       seed=st.integers(0, 2**16))
def test_command_trains_match_per_line(ops, functional, cmd_dmc, cmd_llc,
                                       result_dmc, result_llc, victim, seed):
    def prime(p, engine):
        _prime(p, engine, cmd_dmc, cmd_llc, result_dmc, result_llc, victim)

    off, on, __ = _both(seed, ops, functional, prime=prime)
    assert off == on


def test_plain_sequence_trains_every_command_and_alternates():
    """From a cold doorbell every command trains; the poll alternates
    between a miss (the posted writes invalidated the lines) and a
    hit (the last miss refilled them)."""
    ops = list(OPS) * 3
    off, on, stats = _both(11, ops, functional=True)
    assert off == on
    assert stats["batches"]["cmd/submit-poll"] == len(ops), stats
    assert stats["batches"]["cmd/complete-nc-wr"] == 3, stats
    assert stats["batches"]["cmd/complete-nc-p"] == 9, stats
    assert stats["fallbacks"] == {}, stats
    hits, misses = off[2]["dmc"][1][:2]
    assert hits > 0 and misses > 0


# ---------------------------------------------------------------------------
# every refusal reason, and per-line exactness when refused


def _assert_refused(stats, reason):
    assert stats["fallbacks"].get(reason, 0) > 0, stats


def test_head_refuses_a_busy_simulator():
    """A device access to a command line, queued beside the command,
    interleaves with its poll per-line."""
    def body(p, engine):
        p.sim.spawn(p.t2.lsu.d2d(D2HOp.CS_READ,
                                 engine.doorbell._cmd_lines[0]))
        return [p.sim.run_process(engine.hash_page("cxl"))]

    off, on, stats = _both(3, (), body=body)
    assert off == on
    _assert_refused(stats, "cmd-pending")
    assert "cmd/submit-poll" not in stats["batches"], stats


def test_tail_refuses_work_pending_beside_the_command():
    """A device access started beside the completion queues behind the
    result push per-line."""
    def body(p, engine):
        db, sim = engine.doorbell, p.sim

        def flow():
            cmd, host = yield from db.open(Command("hash"))
            sim.spawn(p.t2.lsu.d2d(D2HOp.CS_READ, db._result_line))
            return (yield from db.close(Completion(cmd.tag), True)), host
        return [sim.run_process(flow())]

    off, on, stats = _both(4, (), body=body)
    assert off == on
    assert stats["batches"]["cmd/submit-poll"] == 1, stats
    _assert_refused(stats, "cmd-pending")


def test_head_refuses_a_queued_command():
    def body(p, engine):
        db = engine.doorbell
        p.sim.run_process(db.submit(Command("stale")))   # never polled
        return [p.sim.run_process(engine.hash_page("cxl"))]

    off, on, stats = _both(5, (), body=body)
    assert off == on
    _assert_refused(stats, "cmd-queue")


def test_tail_refuses_a_waiter_on_the_completion():
    def body(p, engine):
        db, sim = engine.doorbell, p.sim
        seen = []

        def waiter(ev):
            seen.append((yield ev))

        def flow():
            cmd, __ = yield from db.open(Command("hash"))
            sim.spawn(waiter(db._cpl_events[cmd.tag]))
            yield sim.timeout_event(0.0)        # let the waiter park
            return (yield from db.close(Completion(cmd.tag), True))
        out = sim.run_process(flow())
        return [out, [c.tag for c in seen]]

    off, on, stats = _both(6, (), body=body)
    assert off == on
    _assert_refused(stats, "cmd-queue")


@pytest.mark.parametrize("where", ["llc", "dmc"])
def test_head_refuses_a_dirty_command_line(where):
    def prime(p, engine):
        addr = engine.doorbell._cmd_lines[1]
        if where == "llc":
            p.home.preload_llc(addr, LineState.MODIFIED)
        else:
            p.t2.dcoh.dmc.insert(addr, LineState.MODIFIED)

    off, on, stats = _both(7, ["compress", "hash"], prime=prime)
    assert off == on
    _assert_refused(stats, "cmd-dirty")


def _poison_a_dmc_line(p):
    addr = p.fresh_dev_lines(1)[0]
    p.t2.dcoh.dmc.insert(addr, LineState.SHARED)
    p.t2.dcoh.dmc.poison_addr(addr)


def test_head_refuses_a_poisoned_dmc():
    off, on, stats = _both(8, ["hash"],
                           prime=lambda p, engine: _poison_a_dmc_line(p))
    assert off == on
    _assert_refused(stats, "poison")


def test_tail_refuses_a_dmc_poisoned_mid_command():
    def body(p, engine):
        db = engine.doorbell

        def flow():
            cmd, __ = yield from db.open(Command("compress"))
            _poison_a_dmc_line(p)
            return (yield from db.close(Completion(cmd.tag), False))
        return [p.sim.run_process(flow())]

    off, on, stats = _both(8, (), body=body)
    assert off == on
    assert stats["batches"]["cmd/submit-poll"] == 1, stats
    _assert_refused(stats, "poison")


def _cfg(**t2):
    cfg = default_system()
    return dataclasses.replace(cfg, cxl_t2=dataclasses.replace(cfg.cxl_t2,
                                                               **t2))


def test_head_refuses_an_exact_tie():
    """A 100 ns fabric and a 4 ns state change land the first posted
    write's invalidation exactly on the poll's lookup of that line."""
    def prime(p, engine):
        p.t2.dcoh.dmc.insert(engine.doorbell._cmd_lines[0],
                             LineState.SHARED)

    off, on, stats = _both(9, ["hash", "compress"], prime=prime,
                           cfg=_cfg(h2d_fabric_ns=100.0,
                                    h2d_state_change_ns=4.0))
    assert off == on
    _assert_refused(stats, "cmd-race")


def test_head_refuses_an_invalidation_a_pull_could_overtake():
    """A slow state change lands the posted writes' invalidations after
    the decompress pull's first fill, in a command line's DMC set (the
    device cursor starts on the doorbell's sets)."""
    off, on, stats = _both(10, ["hash", "decompress", "hash"],
                           cfg=_cfg(h2d_state_change_ns=300.0))
    assert off == on
    _assert_refused(stats, "cmd-race")


def test_d2d_trains_wait_for_pending_h2d_checks():
    """A refused head leaves per-line posted writes whose DMC checks
    land during the decompress pull, whose lines share the command
    lines' DMC sets: the pull must run per-line (``h2d-check``)."""
    def prime(p, engine):
        _prime(p, engine, (None, LineState.SHARED),
               (LineState.MODIFIED, None), None, None, None)

    off, on, stats = _both(0, ["decompress"], prime=prime)
    assert off == on
    _assert_refused(stats, "cmd-dirty")
    _assert_refused(stats, "h2d-check")
