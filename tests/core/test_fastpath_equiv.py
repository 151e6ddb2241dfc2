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
from repro.core import fastpath
from repro.core.microbench import Microbench
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.core.transfer import TransferBench
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
    t2 = p.t2
    link = t2.port.link
    dcoh = t2.dcoh
    return {
        "now": p.sim.now,
        "rng": (t2.lsu.rng.state(), p.core.rng.state(), p.rng.state()),
        "link": (link.messages, link.bytes_moved),
        "channels": [(ch.reads, ch.writes)
                     for ch in p.home.mem.channels + t2.dev_mem.channels],
        "counters": (dcoh.d2h_count, dcoh.d2d_count, t2.h2d_writes),
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
