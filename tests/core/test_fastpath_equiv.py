"""Bulk fast-forward equivalence suite (docs/PERFORMANCE.md).

Every scenario runs the identical workload twice — bulk disabled, then
enabled — on freshly seeded platforms, and the results must compare
equal: summaries, reports, and final simulation timestamps are the
same IEEE doubles.  Armed faults and sanitizers must force the
per-line path (counted in the fallback telemetry), and the CLI
experiments must emit byte-identical stdout for ``REPRO_BULK=0/1``
at ``--jobs 1`` and ``--jobs 4``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import flags
from repro.core.microbench import Microbench
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.core.transfer import TransferBench
from repro.faults import FaultPlan
from repro.sim.bulk import BULK_STATS
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


# ---------------------------------------------------------------------------
# microbenchmark scenarios, one per train family


def _micro(scenario):
    mb = Microbench(Platform(seed=9), reps=4, accesses=16)
    return scenario(mb)


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
}


@pytest.mark.parametrize("name", sorted(MICRO_SCENARIOS))
def test_microbench_identical_bulk_off_and_on(name):
    scenario = MICRO_SCENARIOS[name]
    off, on, stats = _both(lambda: _micro(scenario))
    assert off == on
    assert stats["total_batches"] > 0, stats


def test_transfer_bench_identical_bulk_off_and_on():
    def run():
        bench = TransferBench(Platform(seed=4), reps=3)
        return [bench.measure("cxl-ldst", direction, nbytes)
                for direction in ("h2d", "d2h")
                for nbytes in (1024, 16384)]

    off, on, stats = _both(run)
    assert off == on
    assert stats["total_batches"] > 0


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
        return reports, p.sim.now

    off, on, stats = _both(run)
    assert off == on
    # The offload flows exercise both d2h and d2d trains.
    assert any(k.startswith("d2h/") for k in stats["batches"]), stats
    assert any(k.startswith("d2d/") for k in stats["batches"]), stats


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
], ids=["table4", "fig4"])
def test_cli_output_byte_identical_across_bulk_and_jobs(args):
    off = _cli(args, "0", 1)
    assert _cli(args, "1", 1) == off
    assert _cli(args, "1", 4) == off
