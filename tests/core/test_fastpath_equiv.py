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
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.units import CACHELINE, PAGE_SIZE

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
                 for link in (t2.port.link, t3.port.link, p.upi.link)],
        "windows": {key: (window.in_use, len(window._waiters))
                    for key, window in p.core._win.items()
                    if key[0] == "remote"},
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
    """CO-wr leaves the DMC dirty, so priming the next phase's DMC hits
    evicts 256 dirty lines: their writebacks fill both device write
    queues ahead of the train's own lines."""
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
    "emul-ld-llc": lambda mb: mb.emulated_d2h(HostOp.LOAD, llc_hit=True),
    "emul-nt-ld-mem": lambda mb: mb.emulated_d2h(HostOp.NT_LOAD,
                                                 llc_hit=False),
    "emul-st-mem": lambda mb: mb.emulated_d2h(HostOp.STORE, llc_hit=False),
    "emul-nt-st-llc": lambda mb: mb.emulated_d2h(HostOp.NT_STORE,
                                                 llc_hit=True),
}


@pytest.mark.parametrize("name", sorted(MICRO_SCENARIOS))
def test_microbench_identical_bulk_off_and_on(name):
    scenario = MICRO_SCENARIOS[name]
    off, on, stats = _both(lambda: _micro(scenario))
    assert off == on
    assert stats["total_batches"] > 0, stats
    # The latency phase trains too.
    assert any("-serial/" in kind for kind in stats["batches"]), stats
    if name.startswith("emul-"):        # both phases, every rep
        assert stats["fallbacks"] == {}, stats
        assert stats["total_batches"] == 2 * 4, stats


def _spawned(fn):
    """Run ``fn``; return its result and the names of the processes it
    spawned."""
    names = []
    spawn = Simulator.spawn

    def spy(sim, gen, name=""):
        names.append(name)
        return spawn(sim, gen, name)

    Simulator.spawn = spy
    try:
        return fn(), names
    finally:
        Simulator.spawn = spawn


def test_pending_counts_only_phases_that_run_per_line():
    """The CO-wr phases dirty the DMC, so the CO-wr reps after the first
    and the NC-wr sweep prime over dirty lines.  Their trains post the
    prime's victims themselves, so every phase of both scenarios x 3
    reps trains: ``pending`` counts none of them."""
    __, __, stats = _both(lambda: _micro(_co_wr_then_nc_wr))
    assert stats["fallbacks"] == {}, stats
    assert stats["batches"] == {"d2d-serial/co-wr": 3, "d2d/co-wr": 3,
                                "d2d-serial/nc-wr": 3, "d2d/nc-wr": 3}


def test_queued_writebacks_demote_microbench_trains():
    """Primed dirty victims no longer queue as spawned ``dmc.writeback``
    processes ahead of a train, so none demotes it: with trains on, the
    sweep spawns only its 12 trains.  Per-line, the same sweep spawns
    one writeback per victim."""
    BULK_STATS.reset()
    __, names = _spawned(lambda: _micro(_co_wr_then_nc_wr))
    assert BULK_STATS.fallbacks == {}
    assert names == [""] * 12          # the trains themselves
    with flags.override(bulk=False):
        __, names = _spawned(lambda: _micro(_co_wr_then_nc_wr))
    # Four CO-wr phases and the first NC-wr rep's two prime over 256
    # dirty lines each.
    assert names.count("dmc.writeback") == 6 * 256


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
# twin helpers: one stream as a train or per-line


def _run_lines(p, make, addrs, train, serial):
    """Run ``train``, or else ``make(addr)`` for every line per-line:
    serial, the dependent-access loop's latencies; pipelined, each
    line's completion time."""
    if train is not None:
        return p.sim.run_process(train)
    if serial:
        return [p.sim.run_process(make(a)) for a in addrs]
    done = [0.0] * len(addrs)

    def line(k, addr):
        yield from make(addr)
        done[k] = p.sim.now

    for k, addr in enumerate(addrs):
        p.sim.spawn(line(k, addr))
    p.sim.run()
    return done


def _prime(dcoh, addrs, state, batched):
    """Prime the DMC as the microbenchmark does (``batched``), returning
    the victims owed, or as the line-by-line fill it stands in for."""
    if state is None:
        return []
    if batched:
        return dcoh.prime_dmc(addrs, state)
    for addr in addrs:
        dcoh._fill_dmc(addr, state)
    return []


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
                        cxl_store_window=4, issue_ns=8.0, dram=dram),
        upi=link,
        cxl_t2=CxlType2Config(link=link, dram=dram, h2d_dmc_check_ns=16.0,
                              h2d_state_change_ns=32.0,
                              h2d_modified_writeback_ns=128.0,
                              h2d_fabric_ns=128.0),
        cxl_t3=CxlType3Config(link=link, dram=dram, h2d_fabric_ns=128.0))


def _h2d_twin(op, scenario, serial, n, seed, bulk, cfg=None, dirty=False):
    """Three rounds of ``n`` H2D lines on a fresh platform, as trains
    (``bulk``) or per-line; returns each round's latencies (serial) or
    per-line completion times (pipelined), and the fingerprint.  With
    ``dirty``, the DMC starts full of MODIFIED lines, so each round's
    prime evicts ``n`` of them: a batched prime hands the train their
    writebacks, a per-line fill spawns them."""
    target, state = H2D_SCENARIOS[scenario]
    p = Platform(cfg, seed=seed)
    dcoh = p.t2.dcoh
    if dirty:
        for addr in p.fresh_dev_lines(dcoh.dmc.capacity_lines):
            dcoh._fill_dmc(addr, LineState.MODIFIED)
    device = getattr(p, target)
    out = []
    for __ in range(3):
        addrs = p.fresh_dev_lines(n)
        p.rng.shuffle(addrs)
        owed = _prime(dcoh, addrs, state, bulk)
        train = (fastpath.try_h2d_train(p, p.core, op, device, addrs,
                                        serial=serial, writebacks=owed)
                 if bulk else None)
        if train is None:
            dcoh.write_back(owed)
        out.append(_run_lines(p, lambda a: p.core.cxl_op(op, a, device),
                              addrs, train, serial))
    return out, _fingerprint(p)


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(list(HostOp)),
       scenario=st.sampled_from(sorted(H2D_SCENARIOS)),
       serial=st.booleans(), n=st.integers(2, 80),
       round_costs=st.booleans(), dirty=st.booleans(),
       seed=st.integers(0, 2**16))
def test_h2d_train_matches_per_line(op, scenario, serial, n, round_costs,
                                    dirty, seed):
    """ld, nt-ld, st and nt-st, into the Type-3 device or a Type-2
    device whose DMC misses or holds every line in one state, with or
    without a prime's writebacks ahead; a pipelined train matches the
    lines' completion times, a serial one their latencies.  Only a
    write that would wait for a full write queue may refuse
    (``h2d-order``)."""
    cfg = _round_system() if round_costs else None
    per_line = _h2d_twin(op, scenario, serial, n, seed, False, cfg, dirty)
    BULK_STATS.reset()
    trained = _h2d_twin(op, scenario, serial, n, seed, True, cfg, dirty)
    assert trained == per_line
    stats = BULK_STATS.snapshot()
    assert set(stats["fallbacks"]) <= {"h2d-order"}, stats
    if not stats["fallbacks"]:
        assert stats["total_batches"] == 3, stats
    elif not (round_costs or dirty):
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
# emulated D2H: a remote core over UPI, every op against the per-line lines


def _remote_twin(op, llc_state, serial, n, seed, bulk, cfg=None):
    """Three rounds of ``n`` remote accesses to host lines resident in
    the LLC in ``llc_state`` (None: absent), as trains (``bulk``) or
    per-line; returns what :func:`_run_lines` does, and the fingerprint."""
    p = Platform(cfg, seed=seed)
    core, home, upi = p.core, p.home, p.upi
    out = []
    for __ in range(3):
        # Half the lines share LLC sets with the other half, so the
        # order of the home agent's lookups shows in LRU order.
        addrs = p.fresh_host_lines(n - n // 2)
        p._host_cursor = addrs[0] + home.llc.num_sets * CACHELINE
        addrs += p.fresh_host_lines(n // 2)
        p.rng.shuffle(addrs)
        if llc_state is not None:
            for addr in addrs:
                home.preload_llc(addr, llc_state)
        train = (fastpath.try_remote_train(p, core, op, addrs, serial=serial)
                 if bulk else None)
        out.append(_run_lines(p, lambda a: core.remote_op(op, a, home, upi),
                              addrs, train, serial))
    return out, _fingerprint(p)


@pytest.mark.parametrize("round_costs", [False, True],
                         ids=["default", "round"])
@pytest.mark.parametrize("serial", [False, True],
                         ids=["pipelined", "serial"])
@pytest.mark.parametrize("llc_state", [None, LineState.SHARED,
                                       LineState.MODIFIED],
                         ids=["miss", "hit-shared", "hit-modified"])
@pytest.mark.parametrize("op", list(HostOp), ids=lambda op: op.value)
@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2**16))
def test_remote_train_matches_per_line(op, llc_state, serial, round_costs,
                                       n, seed):
    """ld, nt-ld, st and nt-st from the remote socket, hitting the LLC
    (in any state: a load downgrades an owner, a store invalidates) or
    missing it; pipelined completions and serial latencies.  Only an
    nt-st write that would wait for a full write queue may refuse."""
    cfg = _round_system() if round_costs else None
    per_line = _remote_twin(op, llc_state, serial, n, seed, False, cfg)
    BULK_STATS.reset()
    trained = _remote_twin(op, llc_state, serial, n, seed, True, cfg)
    assert trained == per_line
    stats = BULK_STATS.snapshot()
    assert set(stats["fallbacks"]) <= {"remote-order"}, stats
    if not round_costs:
        assert stats["fallbacks"] == {}, stats
    if not stats["fallbacks"]:
        assert stats["total_batches"] == 3, stats


def test_remote_train_refuses_a_mixed_llc():
    p = Platform(seed=3)
    addrs = p.fresh_host_lines(8)
    p.home.preload_llc(addrs[2], LineState.SHARED)
    BULK_STATS.reset()
    assert fastpath.try_remote_train(p, p.core, HostOp.LOAD, addrs) is None
    assert BULK_STATS.fallbacks == {"mixed-branch": 1}


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
# trains that post a batched prime's dirty-victim writebacks


def _primed_twin(op, bias, hit, victims, serial, bulk):
    """A d2d stream right after a batched DMC prime that evicts
    ``victims`` dirty lines.  ``hit``: the stream is the primed lines.
    Otherwise it misses into sets that hold dirty lines too, so a fill
    posts its own victim beside the prime's."""
    p = Platform(seed=8)
    dcoh, lsu = p.t2.dcoh, p.t2.lsu
    p.t2.bias._mode["devmem"] = bias
    n = max(40, victims) if hit else 40
    dirty = victims + (0 if hit else n)
    for addr in p.fresh_dev_lines(dirty):
        dcoh._fill_dmc(addr, LineState.MODIFIED)
    p.fresh_dev_lines(dcoh.dmc.capacity_lines - dirty)
    primed = p.fresh_dev_lines(n if hit else victims)
    addrs = primed if hit else p.fresh_dev_lines(n)
    p.rng.shuffle(addrs)
    owed = _prime(dcoh, primed, LineState.SHARED, bulk)
    assert len(owed) == (victims if bulk else 0)
    train = (fastpath.try_lsu_d2d_train(p, lsu, op, addrs, serial=serial,
                                        writebacks=owed)
             if bulk else None)
    if train is None:
        dcoh.write_back(owed)
    out = _run_lines(p, lambda a: lsu.d2d(op, a), addrs, train, serial)
    return out, _fingerprint(p)


@pytest.mark.parametrize("victims", [0, 6, 96])
@pytest.mark.parametrize("hit", [True, False], ids=["dmc-hit", "dmc-miss"])
@pytest.mark.parametrize("bias", [BiasMode.HOST, BiasMode.DEVICE],
                         ids=["host", "device"])
@pytest.mark.parametrize("op", list(fastpath._D2D_OPS),
                         ids=lambda op: op.value)
def test_primed_writeback_train_matches_per_line(op, bias, hit, victims):
    """Every d2d op, bias and DMC branch beside 0, a few, and more
    writebacks than the two device write queues hold (2 x 32): the
    train, posting them ahead of its lines, matches the per-line lines
    running behind the spawned writebacks, serial and pipelined."""
    for serial in (True, False):
        with flags.override(bulk=False):
            per_line = _primed_twin(op, bias, hit, victims, serial, False)
        BULK_STATS.reset()
        assert _primed_twin(op, bias, hit, victims, serial, True) \
            == per_line
        assert BULK_STATS.fallbacks == {}
        assert BULK_STATS.total_batches == 1


def test_primed_writebacks_run_per_line_when_no_train_runs():
    """A refused train leaves the prime's victims to ``write_back``,
    which spawns one unstarted ``dmc.writeback`` per victim, in victim
    order, as the line-by-line fill did."""
    p = Platform(seed=8)
    dcoh = p.t2.dcoh
    for addr in p.fresh_dev_lines(4):
        dcoh._fill_dmc(addr, LineState.MODIFIED)
    p.fresh_dev_lines(dcoh.dmc.capacity_lines - 4)
    owed = dcoh.prime_dmc(p.fresh_dev_lines(4), LineState.SHARED)
    assert p.sim.quiescent
    __, names = _spawned(lambda: dcoh.write_back(owed))
    assert names == ["dmc.writeback"] * 4
    assert [fn.__self__._stack[0].gi_frame.f_locals["addr"]
            for __, fn, __ in p.sim._delta] == owed


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
    ("fig3", "--reps", "2"),
    ("fig4", "--reps", "2"),
    ("fig5", "--reps", "2"),
], ids=["table4", "fig3", "fig4", "fig5"])
def test_cli_output_byte_identical_across_bulk_and_jobs(args):
    off = _cli(args, "0", 1)
    assert _cli(args, "1", 1) == off
    assert _cli(args, "1", 4) == off
