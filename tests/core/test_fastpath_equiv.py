"""Bulk fast-forward equivalence suite (docs/PERFORMANCE.md).

Every scenario runs the identical workload twice — bulk disabled, then
enabled — on freshly seeded platforms, and the results must compare
equal: summaries, reports, final simulation timestamps, RNG states and
every cache's contents and hit/miss/eviction/writeback counters are the
same IEEE doubles, draws and counts.  Serial trains are diffed against
the per-line dependent-access loop on twin platforms over every train
family.  Armed faults and sanitizers must force the per-line path
(counted in the fallback telemetry), and the CLI experiments must emit
byte-identical stdout for ``REPRO_BULK=0/1`` at ``--jobs 1`` and
``--jobs 4``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flags
from repro.config import (
    CxlType2Config,
    CxlType3Config,
    DramConfig,
    HostConfig,
    LinkConfig,
    SystemConfig,
)
from repro.core import fastpath
from repro.core.microbench import Microbench
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.core.transfer import TransferBench
from repro.devices.cxl_type3 import InlineAfu
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.mem.coherence import LineState
from repro.sim.bulk import BULK_STATS
from repro.sim.rng import DeterministicRng
from repro.units import PAGE_SIZE

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _bulk_on():
    """Bulk forced on unless a test overrides it."""
    with flags.override(bulk=True):
        yield


def _both(fn):
    """Run ``fn`` with bulk off then on; return both results + stats."""
    with flags.override(bulk=False):
        off = fn()
    BULK_STATS.reset()
    on = fn()
    return off, on, BULK_STATS.snapshot()


def _cache(cache):
    """Resident lines in walk order, then the four counters."""
    return ([(line.addr, line.state, line.poisoned) for line in cache.lines()],
            (cache.hits, cache.misses, cache.evictions, cache.writebacks))


def _fingerprint(p):
    """Every piece of platform state a train replays, compared with ==."""
    t2, t3 = p.t2, p.t3
    dcoh = t2.dcoh
    return {
        "now": p.sim.now,
        "rng": (t2.lsu.rng.state(), p.core.rng.state(), p.rng.state()),
        "link": [(link.messages, link.bytes_moved)
                 for link in (t2.port.link, t3.port.link)],
        "channels": [(ch.reads, ch.writes)
                     for ch in (p.home.mem.channels + t2.dev_mem.channels
                                + t3.dev_mem.channels)],
        "counters": (dcoh.d2h_count, dcoh.d2d_count, t2.h2d_reads,
                     t2.h2d_writes, t3.h2d_reads, t3.h2d_writes),
        "bias": dict(t2.bias._mode),
        "dmc": _cache(dcoh.dmc),
        "hmc": _cache(dcoh.hmc),
        "llc": _cache(p.home.llc),
    }


# ---------------------------------------------------------------------------
# microbenchmark scenarios, one per train family


def _micro(scenario):
    p = Platform(seed=9)
    result = scenario(Microbench(p, reps=4, accesses=16))
    return result, _fingerprint(p)


def _co_wr_then_nc_wr(mb):
    """CO-wr leaves the DMC dirty, so priming the NC-wr scenario's DMC
    hits queues victim writebacks no resource shows yet: both phases
    must see them (the ``pending`` fallback)."""
    mb = Microbench(mb.p, reps=3, accesses=256)
    return [mb.d2d(D2HOp.CO_WRITE, BiasMode.DEVICE, dmc_hit=True),
            mb.d2d(D2HOp.NC_WRITE, BiasMode.DEVICE, dmc_hit=True)]


MICRO_SCENARIOS = {
    "d2h-nc-rd-mem": lambda mb: mb.d2h(D2HOp.NC_READ, llc_hit=False),
    "d2h-cs-rd-llc": lambda mb: mb.d2h(D2HOp.CS_READ, llc_hit=True),
    "d2h-nc-wr-mem": lambda mb: mb.d2h(D2HOp.NC_WRITE, llc_hit=False),
    "d2h-nc-p": lambda mb: mb.d2h(D2HOp.NC_P, llc_hit=False),
    "h2d-nt-st": lambda mb: mb.h2d(HostOp.NT_STORE, "t2"),
    "h2d-ld-modified": lambda mb: mb.h2d(HostOp.LOAD, "t2",
                                         LineState.MODIFIED),
    "h2d-st-t3": lambda mb: mb.h2d(HostOp.STORE, "t3"),
    "d2d-cs-rd-host": lambda mb: mb.d2d(
        D2HOp.CS_READ, BiasMode.HOST, dmc_hit=False),
    "d2d-nc-rd-dev": lambda mb: mb.d2d(
        D2HOp.NC_READ, BiasMode.DEVICE, dmc_hit=False),
    "d2d-co-rd-hit": lambda mb: mb.d2d(
        D2HOp.CO_READ, BiasMode.HOST, dmc_hit=True),
    "d2d-nc-wr-host": lambda mb: mb.d2d(
        D2HOp.NC_WRITE, BiasMode.HOST, dmc_hit=False),
    "d2d-co-wr-dev": lambda mb: mb.d2d(
        D2HOp.CO_WRITE, BiasMode.DEVICE, dmc_hit=False),
    "d2d-co-wr-host-256": lambda mb: mb.d2d(
        D2HOp.CO_WRITE, BiasMode.HOST, dmc_hit=False, accesses=256),
    "d2d-co-wr-then-nc-wr": _co_wr_then_nc_wr,
}


@pytest.mark.parametrize("name", sorted(MICRO_SCENARIOS))
def test_microbench_identical_bulk_off_and_on(name):
    scenario = MICRO_SCENARIOS[name]
    off, on, stats = _both(lambda: _micro(scenario))
    assert off == on
    assert stats["total_batches"] > 0, stats
    # The latency phase trains too.
    assert any("-serial/" in kind for kind in stats["batches"]), stats


def test_pending_counts_only_phases_that_run_per_line():
    """A latency phase whose first access drains queued writebacks still
    trains the rest, so it is no fallback: ``pending`` counts exactly
    the bandwidth phases that ran per-line (2 scenarios x 3 reps, less
    those that trained)."""
    __, __, stats = _both(lambda: _micro(_co_wr_then_nc_wr))
    batches = stats["batches"]
    assert batches["d2d-serial/co-wr"] == batches["d2d-serial/nc-wr"] == 3
    trained = batches.get("d2d/co-wr", 0) + batches.get("d2d/nc-wr", 0)
    assert stats["fallbacks"] == {"pending": 6 - trained}, stats


def test_queued_writebacks_demote_microbench_trains():
    __, __, stats = _both(lambda: _micro(_co_wr_then_nc_wr))
    assert stats["fallbacks"].get("pending", 0) > 0, stats
    # Every rep's latency phase still trains once its first access has
    # drained the queued writebacks.
    assert stats["batches"]["d2d-serial/nc-wr"] == 3, stats


def test_transfer_bench_identical_bulk_off_and_on():
    """64 B cells train only their bandwidth phase: one transfer is one
    line, the ``depth`` transfers' stream is four."""
    def run():
        p = Platform(seed=4)
        bench = TransferBench(p, reps=3)
        return ([bench.measure("cxl-ldst", direction, nbytes)
                 for direction in ("h2d", "d2h")
                 for nbytes in (64, 1024, 16384)], _fingerprint(p))

    off, on, stats = _both(run)
    assert off == on
    assert stats["total_batches"] > 0


@pytest.mark.parametrize("direction", ["h2d", "d2h"])
def test_transfer_bench_streams_its_bandwidth_phase_as_one_train(direction):
    """A cxl-ldst cell trains once per latency rep and once for the
    bandwidth phase, whose ``depth`` transfers are one stream of lines."""
    bench = TransferBench(Platform(seed=4), reps=3)
    BULK_STATS.reset()
    bench.measure("cxl-ldst", direction, 1024)
    stats = BULK_STATS.snapshot()
    assert stats["total_batches"] == 3 + 1, stats
    assert stats["total_lines"] == (3 + 4) * 16, stats
    assert stats["fallbacks"] == {}, stats


def test_a_train_requested_while_another_replays_is_busy():
    """A live train's replay holds the resources its lines queue on, so
    a second train at the same timestamp is refused until it lands."""
    p = Platform(seed=4)
    lsu = p.t2.lsu

    def request():
        return fastpath.try_lsu_train(p, lsu, D2HOp.CS_READ,
                                      p.fresh_host_lines(8))

    first = request()
    assert first is not None
    BULK_STATS.reset()
    assert request() is None
    assert BULK_STATS.fallbacks == {"busy": 1}
    p.sim.run_process(first)
    assert request() is not None
    assert BULK_STATS.fallbacks == {"busy": 1}


def test_offload_flows_identical_bulk_off_and_on():
    def _page(p):
        # Three-quarters random so the compressed blob spans many lines
        # (a trainable D2D burst), with a poolable zero tail.
        body = bytearray(p.rng.fork(41).random_bytes(PAGE_SIZE * 3 // 4))
        return bytes(body) + bytes(PAGE_SIZE - len(body))

    def run():
        p = Platform(seed=5)
        page = _page(p)
        engine = OffloadEngine(p, functional=True)
        compressed = p.sim.run_process(engine.compress_page("cxl", page))
        reports = [
            compressed,
            p.sim.run_process(engine.decompress_page(
                "cxl", compressed.result,
                stored_bytes=compressed.output_bytes)),
            p.sim.run_process(engine.hash_page("cxl", page)),
            p.sim.run_process(engine.compare_pages("cxl", page, page)),
        ]
        return reports, _fingerprint(p)

    off, on, stats = _both(run)
    assert off == on
    # The offload flows exercise both d2h and d2d trains.
    assert any(k.startswith("d2h/") for k in stats["batches"]), stats
    assert any(k.startswith("d2d/") for k in stats["batches"]), stats


@pytest.mark.parametrize("lines", [fastpath.VECTOR_DRAWS - 1,
                                   fastpath.VECTOR_DRAWS, 64])
def test_draws_identical_either_side_of_the_vector_crossover(lines,
                                                             monkeypatch):
    """Trains below the crossover draw scalar, trains at or above it in
    one vector; both match the per-line draws and RNG state."""
    vector_sizes = []
    jitter_array = DeterministicRng.jitter_array

    def spy(self, base, rel_std):
        vector_sizes.append(len(base))
        return jitter_array(self, base, rel_std)

    monkeypatch.setattr(DeterministicRng, "jitter_array", spy)

    def run():
        p = Platform(seed=12)
        mb = Microbench(p, reps=3, accesses=lines)
        return ([mb.d2h(D2HOp.NC_READ, llc_hit=False),
                 mb.d2d(D2HOp.CS_READ, BiasMode.HOST, dmc_hit=False),
                 mb.h2d(HostOp.NT_STORE, "t2")], _fingerprint(p))

    off, on, stats = _both(run)
    assert off == on
    assert stats["total_batches"] > 0
    if lines < fastpath.VECTOR_DRAWS:
        assert vector_sizes == []
    else:
        assert vector_sizes and min(vector_sizes) >= fastpath.VECTOR_DRAWS


def test_poisoned_dmc_line_refuses_fill_trains():
    """A poisoned DMC line a fill could evict demotes fill trains; trains
    that never fill the DMC still run."""
    p = Platform(seed=6)
    dcoh, lsu = p.t2.dcoh, p.t2.lsu
    resident = p.fresh_dev_lines(1)[0]
    dcoh._fill_dmc(resident, LineState.MODIFIED)

    def d2d_train(op):
        return fastpath.try_lsu_d2d_train(p, lsu, op, p.fresh_dev_lines(8))

    BULK_STATS.reset()
    p.sim.run_process(d2d_train(D2HOp.CS_READ))      # clean: it trains
    assert BULK_STATS.fallbacks == {}
    assert not dcoh.dmc.poison_seen

    dcoh._fill_dmc(resident, LineState.MODIFIED)
    assert dcoh.dmc.poison_addr(resident)
    assert dcoh.dmc.poison_seen
    assert d2d_train(D2HOp.CS_READ) is None
    assert d2d_train(D2HOp.CO_WRITE) is None
    assert BULK_STATS.fallbacks == {"poison": 2}
    p.sim.run_process(d2d_train(D2HOp.NC_READ))      # no fill: it trains
    assert BULK_STATS.fallbacks == {"poison": 2}


def test_d2d_trains_across_bias_regions():
    """A train inside one region takes its mode at once; one crossing
    regions asks line by line, and trains only if the modes agree."""
    p = Platform(seed=3)
    t2, lsu = p.t2, p.t2.lsu
    end = t2.regions.get("devmem").end
    extra = t2.carve_region("extra", 4096)

    def d2d_train(addrs):
        return fastpath.try_lsu_d2d_train(p, lsu, D2HOp.NC_READ, addrs)

    BULK_STATS.reset()
    p.sim.run_process(d2d_train([end - 128, end - 64, extra.base]))
    t2.bias._mode["extra"] = BiasMode.DEVICE
    p.sim.run_process(d2d_train([extra.base + 64, extra.base + 128]))
    assert d2d_train([end - 256, end - 192, extra.base + 192]) is None
    assert d2d_train([extra.end, extra.end + 64]) is None
    stats = BULK_STATS.snapshot()
    assert stats["batches"] == {"d2d/nc-rd": 2}, stats
    assert stats["fallbacks"] == {"mixed-bias": 1, "bias-error": 1}, stats


# ---------------------------------------------------------------------------
# serial trains against the per-line dependent-access loop, twin platforms

SERIAL_PATHS = (
    [("d2h", op) for op in (D2HOp.NC_READ, D2HOp.CS_READ, D2HOp.NC_WRITE,
                            D2HOp.NC_P)]
    + [("d2d", op) for op in (D2HOp.NC_READ, D2HOp.CS_READ, D2HOp.CO_READ,
                              D2HOp.NC_WRITE, D2HOp.CO_WRITE)]
    + [("h2d", HostOp.NT_STORE)])


def _serial_setup(p, family, op, bias, cache_hit, llc_hit, dirty, n):
    """Prime one twin; return (addrs, per-line op factory, train builder)."""
    t2, dcoh = p.t2, p.t2.dcoh
    if dirty:                     # dirty DMC/HMC: fills evict to DRAM
        for addr in p.fresh_dev_lines(dcoh.dmc.capacity_lines):
            dcoh._fill_dmc(addr, LineState.MODIFIED)
        for addr in p.fresh_host_lines(dcoh.hmc.capacity_lines):
            dcoh._fill_hmc(addr, LineState.MODIFIED)
    if family == "d2h":
        addrs = p.fresh_host_lines(n)
        make = lambda a: t2.lsu.d2h(op, a)
        build = lambda a: fastpath.try_lsu_train(p, t2.lsu, op, a,
                                                 serial=True)
        fill = dcoh._fill_hmc
    elif family == "d2d":
        t2.bias._mode["devmem"] = bias
        addrs = p.fresh_dev_lines(n)
        make = lambda a: t2.lsu.d2d(op, a)
        build = lambda a: fastpath.try_lsu_d2d_train(p, t2.lsu, op, a,
                                                     serial=True)
        fill = dcoh._fill_dmc
    else:
        addrs = p.fresh_dev_lines(n)
        make = lambda a: p.core.cxl_op(op, a, t2)
        build = lambda a: fastpath.try_h2d_train(p, p.core, op, t2, a,
                                                 serial=True)
        fill = dcoh._fill_dmc
    p.rng.shuffle(addrs)
    for addr in addrs:
        if cache_hit:
            fill(addr, LineState.SHARED)
        if llc_hit:
            p.home.preload_llc(addr, LineState.SHARED)
    return addrs, make, build


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(SERIAL_PATHS),
       bias=st.sampled_from((BiasMode.HOST, BiasMode.DEVICE)),
       cache_hit=st.booleans(), llc_hit=st.booleans(),
       dirty=st.booleans(), pending=st.booleans(),
       n=st.integers(2, 300), seed=st.integers(0, 2**16))
def test_serial_train_matches_dependent_loop(path, bias, cache_hit, llc_hit,
                                             dirty, pending, n, seed):
    """Cache hit means HMC for d2h, DMC otherwise; ``dirty`` fills the
    device caches with MODIFIED lines so fills evict to DRAM; ``pending``
    leaves one access queued, which the first dependent access drains."""
    family, op = path
    twins = []
    for serial in (False, True):
        p = Platform(seed=seed)
        addrs, make, build = _serial_setup(p, family, op, bias, cache_hit,
                                           llc_hit, dirty, n)
        if pending:               # queued work the first access drains
            p.sim.spawn(make(addrs.pop()))
        lat = []
        if serial and not fastpath.quiescent(p):
            assert build(addrs) is None
            lat.append(p.sim.run_process(make(addrs[0])))
            addrs = addrs[1:]
        train = build(addrs) if serial else None
        if train is not None:
            lat += p.sim.run_process(train)
        else:
            lat += [p.sim.run_process(make(a)) for a in addrs]
        twins.append((lat, _fingerprint(p)))
    assert twins[0] == twins[1]


# ---------------------------------------------------------------------------
# H2D trains: every op, target and DMC state against the per-line lines

H2D_SCENARIOS = {        # name -> (target, DMC state primed on every line)
    "t3": ("t3", None),
    "miss": ("t2", None),
    "shared": ("t2", LineState.SHARED),
    "owned": ("t2", LineState.OWNED),
    "exclusive": ("t2", LineState.EXCLUSIVE),
    "modified": ("t2", LineState.MODIFIED),
}


def _round_system():
    """Round link, DRAM and device costs, so that lines meet at a stage
    at equal floats far more often than at the defaults, and a short
    write queue that fills."""
    link = LinkConfig("round", propagation_ns=35.0, bytes_per_ns=16.0)
    dram = DramConfig("round", read_ns=128.0, bytes_per_ns=16.0,
                      write_queue_entries=4)
    return SystemConfig(
        host=HostConfig(cxl_load_mlp=6, cxl_nt_load_mlp=8,
                        cxl_store_window=4, issue_ns=8.0),
        cxl_t2=CxlType2Config(link=link, dram=dram, h2d_dmc_check_ns=16.0,
                              h2d_state_change_ns=32.0,
                              h2d_modified_writeback_ns=128.0,
                              h2d_fabric_ns=128.0),
        cxl_t3=CxlType3Config(link=link, dram=dram, h2d_fabric_ns=128.0))


def _h2d_twin(op, scenario, serial, n, seed, bulk, cfg=None):
    """Three rounds of ``n`` H2D lines on a fresh platform, as trains
    (``bulk``) or per-line; returns each round's latencies (serial) or
    per-line completion times (pipelined), and the fingerprint."""
    target, state = H2D_SCENARIOS[scenario]
    p = Platform(cfg, seed=seed)
    device = getattr(p, target)
    out = []
    for __ in range(3):
        addrs = p.fresh_dev_lines(n)
        p.rng.shuffle(addrs)
        if state is not None:
            for addr in addrs:
                p.t2.dcoh._fill_dmc(addr, state)
        train = (fastpath.try_h2d_train(p, p.core, op, device, addrs,
                                        serial=serial) if bulk else None)
        if train is not None:
            out.append(p.sim.run_process(train))
        elif serial:
            out.append([p.sim.run_process(p.core.cxl_op(op, a, device))
                        for a in addrs])
        else:
            done = [0.0] * n

            def line(k, addr):
                yield from p.core.cxl_op(op, addr, device)
                done[k] = p.sim.now

            for k, addr in enumerate(addrs):
                p.sim.spawn(line(k, addr))
            p.sim.run()
            out.append(done)
    return out, _fingerprint(p)


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(list(HostOp)),
       scenario=st.sampled_from(sorted(H2D_SCENARIOS)),
       serial=st.booleans(), n=st.integers(2, 80),
       round_costs=st.booleans(), seed=st.integers(0, 2**16))
def test_h2d_train_matches_per_line(op, scenario, serial, n, round_costs,
                                    seed):
    """ld, nt-ld, st and nt-st, into the Type-3 device or a Type-2
    device whose DMC misses or holds every line in one state; a
    pipelined train matches the lines' completion times, a serial one
    their latencies.  Only a write that would wait for a full write
    queue may refuse (``h2d-order``)."""
    cfg = _round_system() if round_costs else None
    per_line = _h2d_twin(op, scenario, serial, n, seed, False, cfg)
    BULK_STATS.reset()
    trained = _h2d_twin(op, scenario, serial, n, seed, True, cfg)
    assert trained == per_line
    stats = BULK_STATS.snapshot()
    assert set(stats["fallbacks"]) <= {"h2d-order"}, stats
    if not stats["fallbacks"]:
        assert stats["total_batches"] == 3, stats
    elif not round_costs:
        assert scenario == "modified" and op is HostOp.NT_STORE, stats


def test_h2d_trains_refuse_mixed_dmc_states():
    """One line of the train in another state, or absent, takes another
    branch of the DMC check: the train is refused (``dmc-state``)."""
    p = Platform(seed=3)
    dcoh = p.t2.dcoh
    addrs = p.fresh_dev_lines(8)
    for addr in addrs:
        dcoh._fill_dmc(addr, LineState.SHARED)
    BULK_STATS.reset()
    dcoh.dmc.set_state(addrs[3], LineState.OWNED)
    assert fastpath.try_h2d_train(p, p.core, HostOp.LOAD, p.t2,
                                  addrs) is None
    dcoh.dmc.set_state(addrs[3], LineState.INVALID)
    assert fastpath.try_h2d_train(p, p.core, HostOp.STORE, p.t2,
                                  addrs) is None
    assert BULK_STATS.fallbacks == {"dmc-state": 2}
    assert fastpath.try_h2d_train(p, p.core, HostOp.LOAD, p.t2,
                                  addrs[4:]) is not None


def test_h2d_train_refuses_an_inline_afu():
    p = Platform(seed=3)
    p.t3.attach_inline_afu(InlineAfu())
    BULK_STATS.reset()
    assert fastpath.try_h2d_train(p, p.core, HostOp.LOAD, p.t3,
                                  p.fresh_dev_lines(4)) is None
    assert BULK_STATS.fallbacks == {"h2d-target": 1}


# ---------------------------------------------------------------------------
# PCIe MMIO writes: one chained train per quiescent writer


@pytest.mark.parametrize("depth,nbytes", [(1, 256), (4, 64), (4, 1024)])
def test_mmio_write_train_matches_concurrent_per_line_writers(depth,
                                                              nbytes):
    """``depth`` per-line writers take the ordering slot in turn, so the
    last beat ends where one stream of all their beats does."""
    def per_line():
        p = Platform(seed=2)
        done = []

        def writer():
            yield from p.pcie.mmio_write(nbytes)
            done.append(p.sim.now)

        for __ in range(depth):
            p.sim.spawn(writer())
        p.sim.run()
        return max(done), p.sim.now

    def trained():
        p = Platform(seed=2)
        p.sim.run_process(p.pcie.mmio_write(depth * nbytes))
        return p.sim.now, p.sim.now

    with flags.override(bulk=False):
        off = per_line()
    BULK_STATS.reset()
    assert trained() == off
    assert BULK_STATS.batches == {"pcie/mmio-wr": 1}
    assert BULK_STATS.lines == {"pcie/mmio-wr": depth * nbytes // 64}


def test_mmio_write_train_waits_for_a_second_writer():
    """A writer that finds another holding the ordering slot (the
    simulator is not quiescent) interleaves with it per beat."""
    def run():
        p = Platform(seed=2)
        done = {}

        def writer(name, nbytes):
            yield from p.pcie.mmio_write(nbytes)
            done[name] = p.sim.now

        p.sim.spawn(writer("first", 128))
        p.sim.spawn(writer("second", 256))
        p.sim.run()
        return done

    off, on, stats = _both(run)
    assert on == off
    assert stats["batches"] == {}, stats
    d = SystemConfig().pcie_dev.mmio_write_oneway_ns
    assert on["first"] == d + d + d          # its second beat waited
    assert on["second"] == d + d + d + d + d + d


def test_mmio_write_train_refuses_a_held_ordering_slot():
    """A slot held outside any process leaves the simulator quiescent;
    the train still refuses, and the writer waits as it would per-line
    (here forever)."""
    p = Platform(seed=2)
    p.pcie.port._write_order.acquire()
    p.sim.run()
    BULK_STATS.reset()
    with pytest.raises(SimulationError, match="deadlocked"):
        p.sim.run_process(p.pcie.mmio_write(256))
    assert BULK_STATS.batches == {}


# ---------------------------------------------------------------------------
# d2d trains beside queued dirty-victim writebacks


def _primed_over_dirty(p, n):
    """``n`` DMC lines primed SHARED over ``n`` MODIFIED ones in the same
    sets (the DMC is direct-mapped): ``n`` writebacks queue, unstarted."""
    dcoh = p.t2.dcoh
    sets = dcoh.dmc.capacity_lines
    dirty = p.fresh_dev_lines(n)
    for addr in dirty:
        dcoh._fill_dmc(addr, LineState.MODIFIED)
    p.fresh_dev_lines(sets - n)
    addrs = p.fresh_dev_lines(n)
    p.rng.shuffle(addrs)
    for addr in addrs:
        dcoh._fill_dmc(addr, LineState.SHARED)
    return addrs


@pytest.mark.parametrize("bias", [BiasMode.HOST, BiasMode.DEVICE])
def test_co_wr_hit_train_runs_beside_queued_writebacks(bias):
    """A DMC-hit CO-wr train posts no write, so it starts beside 256
    queued writebacks, which then run per-line; the result matches the
    per-line lines running among them."""
    def run():
        p = Platform(seed=8)
        p.t2.bias._mode["devmem"] = bias
        addrs = _primed_over_dirty(p, 256)
        assert fastpath.writebacks_queued(p)
        assert len(p.sim._delta) == 256
        lsu = p.t2.lsu
        train = (fastpath.try_lsu_d2d_train(p, lsu, D2HOp.CO_WRITE, addrs,
                                            beside_writebacks=True)
                 if flags.get("bulk") else None)
        if train is not None:
            done = p.sim.run_process(train)
            p.sim.run()
        else:
            done = [0.0] * len(addrs)

            def line(k, addr):
                yield from lsu.d2d(D2HOp.CO_WRITE, addr)
                done[k] = p.sim.now

            for k, addr in enumerate(addrs):
                p.sim.spawn(line(k, addr))
            p.sim.run()
        return done, _fingerprint(p)

    off, on, stats = _both(run)
    assert on == off
    assert stats["batches"] == {"d2d/co-wr": 1}, stats
    assert stats["fallbacks"] == {}, stats


def test_trains_that_post_refuse_beside_queued_writebacks():
    """An NC-wr posts every line and a DMC-miss fill can post a victim:
    both are refused beside queued writebacks (``pending``); a DMC-hit
    CS-rd posts nothing and trains."""
    p = Platform(seed=8)
    lsu = p.t2.lsu
    addrs = _primed_over_dirty(p, 64)
    BULK_STATS.reset()
    for op, lines in ((D2HOp.NC_WRITE, addrs),
                      (D2HOp.CO_WRITE, p.fresh_dev_lines(8))):
        assert fastpath.try_lsu_d2d_train(p, lsu, op, lines,
                                          beside_writebacks=True) is None
    assert BULK_STATS.fallbacks == {"pending": 2}
    p.sim.run_process(fastpath.try_lsu_d2d_train(
        p, lsu, D2HOp.CS_READ, addrs, beside_writebacks=True))
    assert BULK_STATS.batches == {"d2d/cs-rd": 1}


def test_writebacks_queued_sees_only_unstarted_writebacks():
    """Quiescent, or anything but unstarted ``dmc.writeback`` spawns
    queued (another process, or a writeback already running), is not
    the writebacks-only state."""
    p = Platform(seed=8)
    assert not fastpath.writebacks_queued(p)
    addrs = _primed_over_dirty(p, 4)
    assert fastpath.writebacks_queued(p)
    p.sim.spawn(p.t2.lsu.d2d(D2HOp.NC_READ, addrs[0]))
    assert not fastpath.writebacks_queued(p)
    p.sim.run()
    _primed_over_dirty(p, 4)
    __, step, args = p.sim._delta.popleft()      # one writeback starts
    step(*args)
    assert p.sim._delta and not fastpath.writebacks_queued(p)


# ---------------------------------------------------------------------------
# the sampled bulk flag does not outlive its override state


@pytest.mark.parametrize("first,then", [(True, False), (False, True)])
def test_bulk_sample_does_not_leak_into_a_restored_checkpoint(first, then):
    """A platform trained (or not) under one override state, then
    checkpointed and forked under another, runs as the new state says:
    exactly like a platform that ran under it all along."""
    def work(p):
        mb = Microbench(p, reps=2, accesses=16)
        return mb.h2d(HostOp.LOAD, "t2"), _fingerprint(p)

    with flags.override(bulk=first):
        p = Platform(seed=3)
        work(p)
        cp = p.sim.checkpoint(p)
    with flags.override(bulk=then):
        BULK_STATS.reset()
        forked = work(cp.restore())
        assert (BULK_STATS.total_batches > 0) is then
    with flags.override(bulk=then):
        q = Platform(seed=3)
        work(q)
        reference = work(q)
    assert forked == reference


# ---------------------------------------------------------------------------
# armed RAS machinery and sanitizers demote every train


def test_armed_link_faults_force_per_line():
    BULK_STATS.reset()
    p = Platform(seed=6)
    # Armed but never firing: timing identical, eligibility destroyed.
    p.t2.port.link.faults = FaultPlan(rates={"link_crc": 0.0})
    Microbench(p, reps=2, accesses=8).d2h(D2HOp.NC_READ, llc_hit=False)
    stats = BULK_STATS.snapshot()
    assert stats["total_batches"] == 0
    assert stats["fallbacks"].get("link-ras", 0) > 0


def test_armed_sanitizers_force_per_line():
    BULK_STATS.reset()
    p = Platform(seed=6)
    p.arm_sanitizers()
    mb = Microbench(p, reps=2, accesses=8)
    mb.d2h(D2HOp.NC_READ, llc_hit=False)
    mb.d2d(D2HOp.CS_READ, BiasMode.HOST, dmc_hit=False)
    stats = BULK_STATS.snapshot()
    assert stats["total_batches"] == 0
    assert stats["fallbacks"].get("sanitizers", 0) > 0
    p.assert_sanitizers_clean()


def test_poisoned_device_memory_forces_per_line():
    BULK_STATS.reset()
    p = Platform(seed=6)
    p.t2.dev_mem.poison(p.fresh_dev_lines(1)[0])
    Microbench(p, reps=2, accesses=8).d2d(
        D2HOp.NC_WRITE, BiasMode.HOST, dmc_hit=False)
    stats = BULK_STATS.snapshot()
    assert stats["total_batches"] == 0
    assert stats["fallbacks"].get("faults", 0) > 0


# ---------------------------------------------------------------------------
# CLI experiments: byte-identical stdout across REPRO_BULK x --jobs


def _cli(args, bulk, jobs):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REPRO_BULK=bulk)
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args, "--jobs", str(jobs)],
        capture_output=True, env=env, cwd=REPO, timeout=600)
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    return result.stdout


@pytest.mark.parametrize("args", [
    ("table4", "--reps", "2"),
    ("fig4", "--reps", "2"),
    ("fig5", "--reps", "2"),
], ids=["table4", "fig4", "fig5"])
def test_cli_output_byte_identical_across_bulk_and_jobs(args):
    off = _cli(args, "0", 1)
    assert _cli(args, "1", 1) == off
    assert _cli(args, "1", 4) == off
