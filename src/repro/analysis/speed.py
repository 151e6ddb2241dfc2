"""Engine/experiment speed benchmarks -> ``BENCH_speed.json``.

Everything else in this repo treats wall-clock time as a determinism
hazard; this module is the one place it is the *measurand*.  Engine
microbenchmarks hammer the simulator's hot paths (Timeout traffic at a
few shared and at many distinct deadlines, timer cancel churn, zero-delay event
chains through the delta queue, Resource acquire/release churn),
end-to-end experiments time the paths users actually run, and the
process's peak RSS rounds out the picture.

The output is machine-readable (``BENCH_speed.json``) so CI can diff it
against a committed baseline (``benchmarks/perf/baseline.json``; see
``benchmarks/perf/check_regression.py``) and fail on a real regression
without flaking on runner noise.  ``python -m repro speed`` is the
human entry point; docs/PERFORMANCE.md explains how to read the fields.

Throughput metric: *scheduled callbacks per second*, ``sim._seq / dt``
— every event the engine dispatched, whatever its kind, divided by the
wall time of the run.  It is the engine-level analogue of simulator
"events/sec" and is insensitive to how a workload splits its work
between processes, events and resources.
"""

from __future__ import annotations

import json
import platform as _platform
import time
from typing import Any, Callable, Dict, Optional

from repro import flags

SCHEMA = "repro-speed/1"


# --------------------------------------------------------------------------
# Engine microbenchmarks.  Definitions are frozen: docs/PERFORMANCE.md
# records measurements against exactly these shapes, and the committed
# baseline assumes them.  Change them only together with both.

def _run_timeouts(periods: list, steps: int) -> float:
    """One process per period, each yielding ``steps`` Timeouts of it."""
    from repro.sim.engine import Simulator, Timeout
    sim = Simulator()

    def proc(period):
        for _ in range(steps):
            yield Timeout(period)

    for period in periods:
        sim.spawn(proc(period))
    t0 = time.perf_counter()
    sim.run()
    return sim._seq / (time.perf_counter() - t0)


def bench_timeouts(n_procs: int = 200, steps: int = 500) -> float:
    """Pure timer traffic: many interleaved processes yielding Timeouts
    with co-prime-ish periods, so deadline order keeps shuffling.  The
    seven periods put many timers on each deadline, so most pushes
    append to a bucket that is already open; the paper workloads never
    share deadlines at that density."""
    return _run_timeouts([1.0 + (i % 7) * 0.5 for i in range(n_procs)], steps)


def bench_timeouts_far(n_procs: int = 200, steps: int = 500) -> float:
    """The ``timeouts`` shape with a deadline per timer: every process
    has its own period between 5 and 12 µs, the open-loop client and
    service-time traffic of the fig8 sweep, so nearly every deadline is
    distinct and every push opens a bucket — the shape the paper
    workloads' timers have."""
    return _run_timeouts([5000.0 + i * 35.0 for i in range(n_procs)], steps)


def bench_event_chain(n: int = 100_000) -> float:
    """Zero-delay plumbing: a long chain of one-shot events resumed
    through nested generators — the delta-queue fast path."""
    from repro.sim.engine import Simulator
    sim = Simulator()

    def chain(i):
        value = yield sim.timeout_event(1.0, i)
        return value

    def driver():
        for i in range(n):
            yield chain(i)

    t0 = time.perf_counter()
    sim.run_process(driver())
    return sim._seq / (time.perf_counter() - t0)


def bench_resource_churn(n_workers: int = 50, iters: int = 400) -> float:
    """Contended acquire/release on a small Resource: every release
    hands off through ``call_soon`` wakeups."""
    from repro.sim.engine import Simulator, Timeout
    from repro.sim.resources import Resource
    sim = Simulator()
    res = Resource(sim, capacity=4)

    def worker():
        for _ in range(iters):
            yield res.acquire()
            yield Timeout(1.0)
            res.release()

    for _ in range(n_workers):
        sim.spawn(worker())
    t0 = time.perf_counter()
    sim.run()
    return sim._seq / (time.perf_counter() - t0)


def bench_timeouts_cancelled(n_procs: int = 100, steps: int = 400) -> float:
    """Schedule+cancel churn — the RAS reaping pattern: every step arms
    a long watchdog timer (50x the step period, like a command timeout
    over a fast completion path), does its work, and cancels it.  This
    measures the whole cancel round trip: the bucket push, the tombstone
    note and the compaction passes."""
    from repro.sim.engine import Simulator, Timeout
    sim = Simulator()

    def proc(period):
        for _ in range(steps):
            watchdog = sim.timer(period * 50_000.0)
            yield Timeout(period)
            watchdog.cancel()

    for i in range(n_procs):
        sim.spawn(proc(1.0 + (i % 7) * 0.5))
    t0 = time.perf_counter()
    sim.run()
    return sim._seq / (time.perf_counter() - t0)


ENGINE_BENCHES: Dict[str, Callable[[], float]] = {
    "timeouts": bench_timeouts,
    "timeouts_far": bench_timeouts_far,
    "timeouts_cancelled": bench_timeouts_cancelled,
    "event_chain": bench_event_chain,
    "resource_churn": bench_resource_churn,
}


# --------------------------------------------------------------------------
# End-to-end experiment timings: what `python -m repro <x>` costs.

def _exp_table3() -> None:
    from repro.experiments import table3_coherence
    table3_coherence.run()


def _exp_fig3() -> None:
    from repro.experiments import fig3_d2h
    fig3_d2h.run(reps=5)


def _exp_faults() -> None:
    from repro.experiments import ext_fault_resilience
    ext_fault_resilience.run_device_kill(pages=60)


def _exp_fig6_cxl_ldst() -> None:
    """The Fig-6 CXL ld/st transfer sweep: the line-streaming hot path
    the bulk fast-forward layer (repro.core.fastpath) accelerates."""
    from repro.core.platform import Platform
    from repro.core.transfer import TransferBench
    bench = TransferBench(Platform(), reps=3)
    for direction in ("d2h", "h2d"):
        for nbytes in (16384, 65536):
            bench.measure("cxl-ldst", direction, nbytes)


def _exp_zswap_ksm() -> None:
    """A functional zswap store/load + ksm scan mix over content-redundant
    pages: the pure-Python codec work repro.kernel.workcache memoizes."""
    from repro.core.offload import OffloadEngine
    from repro.core.platform import Platform
    from repro.kernel.ksm import Ksm
    from repro.kernel.swapdev import SwapDevice
    from repro.kernel.vm import make_vm_fleet
    from repro.kernel.zswap import Zswap
    from repro.units import PAGE_SIZE

    p = Platform()
    engine = OffloadEngine(p, functional=True)
    zswap = Zswap(engine, SwapDevice(p.sim), "cxl", managed_pages=512)
    rng = p.rng.fork(97)
    # A handful of distinct page contents reused across many stores —
    # the content redundancy real guests exhibit.  Three-quarters random
    # bytes keeps the LZ match scan honest (few matches = the slow path)
    # while the zero tail keeps the page poolable.
    templates = []
    for i in range(8):
        page = bytearray(rng.random_bytes(PAGE_SIZE * 3 // 4))
        page += bytes(PAGE_SIZE - len(page))
        page[:4] = i.to_bytes(4, "little")
        templates.append(bytes(page))
    handles = []
    for k in range(96):
        handle, __ = p.sim.run_process(
            zswap.store(templates[k % len(templates)]))
        handles.append(handle)
    for handle in handles[:32]:
        p.sim.run_process(zswap.load(handle))
    vms = make_vm_fleet(3, 24, shared_fraction=0.6, rng=p.rng.fork(98))
    ksm = Ksm(engine, "cxl", vms, functional=True)
    for __ in range(2):
        p.sim.run_process(ksm.full_scan())


def _ckpt_warmup(pages: int = 96):
    """The expensive, point-independent half of the checkpoint speed
    cell: a functional zswap pool prefill (full LZ codec work on
    ``pages`` content-redundant pages).  Returns a quiescent
    (platform, zswap, handles) root ready to snapshot."""
    from repro.core.offload import OffloadEngine
    from repro.core.platform import Platform
    from repro.kernel.swapdev import SwapDevice
    from repro.kernel.zswap import Zswap
    from repro.units import PAGE_SIZE

    p = Platform()
    engine = OffloadEngine(p, functional=True)
    zswap = Zswap(engine, SwapDevice(p.sim), "cxl", managed_pages=512)
    rng = p.rng.fork(97)
    templates = []
    for i in range(8):
        page = bytearray(rng.random_bytes(PAGE_SIZE * 3 // 4))
        page += bytes(PAGE_SIZE - len(page))
        page[:4] = i.to_bytes(4, "little")
        templates.append(bytes(page))
    handles = []
    for k in range(pages):
        handle, __ = p.sim.run_process(
            zswap.store(templates[k % len(templates)]))
        handles.append(handle)
    return (p, zswap, tuple(handles))


def _ckpt_probe(root, start: int, count: int = 8) -> int:
    """One sweep point: fault ``count`` pages back in from the prefilled
    pool — deliberately cheap next to the warm-up, which is the shape
    the checkpoint layer exists to amortize."""
    platform, zswap, handles = root
    loaded = 0
    for handle in handles[start:start + count]:
        data, __ = platform.sim.run_process(zswap.load(handle))
        loaded += len(data or b"")
    return loaded


def _checkpoint_sweep() -> None:
    """An 8-point sweep sharing one pool-prefill warm-up: cold replays
    the prefill per point; forked snapshots it once and restores."""
    from repro.sim.parallel import ForkSpec, run_forked_sweep
    spec = ForkSpec.build(
        "speed_checkpoint", _ckpt_warmup,
        [(i, _ckpt_probe, (i * 8,), {}) for i in range(8)])
    run_forked_sweep(spec, jobs=1)


def _exp_rack_sparse() -> None:
    """A sparse 4-host rack: arrivals land epochs apart (low utilization
    stretches the run), so most 500us barriers are empty and the
    quiescent-epoch fast-forward jumps over them."""
    from repro.rack import RackConfig, run_rack
    run_rack(RackConfig(hosts=4, users=256, buckets=64,
                        servers_per_host=1, target_utilization=0.001,
                        seed=42), jobs=1)


EXPERIMENT_BENCHES: Dict[str, Callable[[], None]] = {
    "table3": _exp_table3,
    "fig3_reps5": _exp_fig3,
    "faults_kill60": _exp_faults,
    "fig6_cxl_ldst": _exp_fig6_cxl_ldst,
    "zswap_ksm": _exp_zswap_ksm,
    "rack_sparse": _exp_rack_sparse,
}


# --------------------------------------------------------------------------
# Fast-forward feature speedups: the same workload timed with the
# feature off then on.  The off/on outputs are byte-identical (the
# equivalence suite asserts it); these cells record the wall-clock win
# and the feature telemetry, and CI gates on the floors below.

#: Minimum accepted bulk speedup on the Fig-6 ld/st sweep.  Measured
#: ~4x; the floor is loose for noisy CI runners.
FIG6_BULK_SPEEDUP_FLOOR = 2.0
#: Minimum accepted combined bulk+workcache speedup on the functional
#: zswap/ksm mix (the offload flows train d2h/d2d; the codec work hits
#: the cache).  Measured ~3x.
ZSWAP_KSM_CACHE_SPEEDUP_FLOOR = 2.0
#: Minimum accepted checkpoint-fork speedup on the warm-up-heavy sweep
#: (8 points sharing one 96-page zswap pool prefill).  Cold replays the
#: codec-heavy prefill per point; forked pays one prefill + one pickle
#: round trip per point.  With occupancy-sized cache sets the payload
#: tracks resident lines only; measured ~6x, and the floor is loose for
#: noisy CI runners.
CHECKPOINT_FORK_SPEEDUP_FLOOR = 4.0
#: Minimum accepted warm-over-cold win for the content-addressed
#: experiment cache: computing + storing a fig3 cell vs serving it from
#: disk.  Measured orders of magnitude; 5x is the contract the warm
#: ``repro all`` CI job also enforces end to end.
EXPCACHE_WARM_SPEEDUP_FLOOR = 5.0
#: Minimum accepted ShardPool speedup on the 16-shard rack bench at
#: ``jobs=4`` vs ``jobs=1``, on hosts with at least 4 CPUs.  Measured
#: >2.5x on 4-core runners; the floor is loose for noisy CI.  Smaller
#: hosts run fewer jobs and get a derived floor
#: (:func:`rack_parallel_floor`).
RACK_PARALLEL_SPEEDUP_FLOOR = 2.0
#: Worker count of the ``rack_parallel`` cell on a host with enough CPUs.
RACK_PARALLEL_JOBS = 4


def rack_parallel_floor(jobs: int, cpus: int) -> Optional[float]:
    """The ``rack_parallel`` speedup floor for a run at ``jobs`` workers
    on a host with ``cpus`` CPUs (only ``min(jobs, cpus)`` run at once).

    The cell runs ``jobs = min(4, cpus)``.  The 2.0x floor at 4 workers
    asks each worker to return at least half a CPU of speedup (parallel
    efficiency 2.0 / 4 = 0.5); a smaller host is held to that same
    efficiency, so the floor is ``2.0 * jobs / 4``: 1.5x at 3 jobs and
    1.0x at 2 (two workers must not be slower than the serial run).  At
    one job there is no parallel run to measure, and the cell is
    unmeasured (None).
    """
    parallel = min(jobs, cpus)
    if parallel < 2:
        return None
    return RACK_PARALLEL_SPEEDUP_FLOOR * parallel / RACK_PARALLEL_JOBS

SPEEDUP_FLOORS: Dict[str, float] = {
    "fig6_cxl_ldst": FIG6_BULK_SPEEDUP_FLOOR,
    "zswap_ksm": ZSWAP_KSM_CACHE_SPEEDUP_FLOOR,
    "checkpoint_fork": CHECKPOINT_FORK_SPEEDUP_FLOOR,
    "expcache_warm": EXPCACHE_WARM_SPEEDUP_FLOOR,
    "rack_parallel": RACK_PARALLEL_SPEEDUP_FLOOR,
}

#: Maximum accepted armed/disarmed wall-time ratio for the resilience
#: layer on the degradation workload.  Arming adds one spawned shield
#: process + one cancellable hedge timer per offload, so some overhead
#: is by design; measured ~1.3x, and the ceiling is loose for noisy CI
#: runners.  Disarmed overhead is gated separately (byte-identity in
#: the determinism suite — the NO_RESILIENCE path costs one attribute
#: test).
RESILIENCE_OVERHEAD_CEILING = 2.5

OVERHEAD_CEILINGS: Dict[str, float] = {
    "resilience_degradation": RESILIENCE_OVERHEAD_CEILING,
}


def _best_wall(fn: Callable[[], None], rounds: int) -> float:
    best = float("inf")
    for __ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_speedups(rounds: int = 3) -> Dict[str, Any]:
    """Off-vs-on wall times for the bulk fast-forward (Fig-6 sweep) and
    the kernel work cache (zswap/ksm mix), plus their telemetry."""
    from repro.kernel.workcache import WORK_CACHE
    from repro.sim.bulk import BULK_STATS

    cells: Dict[str, Any] = {}
    with flags.override(bulk=False):
        off = _best_wall(_exp_fig6_cxl_ldst, rounds)
    with flags.override(bulk=True):
        BULK_STATS.reset()
        on = _best_wall(_exp_fig6_cxl_ldst, rounds)
        cells["fig6_cxl_ldst"] = {
            "feature": "bulk",
            "off_wall_s": round(off, 4),
            "on_wall_s": round(on, 4),
            "speedup": round(off / on, 2),
            "stats": BULK_STATS.snapshot(),
        }
    with flags.override(bulk=False, workcache=False):
        off = _best_wall(_exp_zswap_ksm, rounds)
    with flags.override(bulk=True, workcache=True):
        BULK_STATS.reset()
        WORK_CACHE.reset()
        on = _best_wall(_exp_zswap_ksm, rounds)
        cells["zswap_ksm"] = {
            "feature": "bulk+workcache",
            "off_wall_s": round(off, 4),
            "on_wall_s": round(on, 4),
            "speedup": round(off / on, 2),
            "stats": WORK_CACHE.snapshot(),
            "bulk_stats": BULK_STATS.snapshot(),
        }

    from repro.sim.checkpoint import CHECKPOINT_STATS

    # Work cache off on both sides: with it on, cold warm-ups 2..N are
    # memoized codec hits and the cell would be measuring the work
    # cache, not the checkpoint fork.
    with flags.override(workcache=False, checkpoint=False):
        off = _best_wall(_checkpoint_sweep, rounds)
    with flags.override(workcache=False, checkpoint=True):
        CHECKPOINT_STATS.reset()
        on = _best_wall(_checkpoint_sweep, rounds)
        cells["checkpoint_fork"] = {
            "feature": "checkpoint-fork",
            "off_wall_s": round(off, 4),
            "on_wall_s": round(on, 4),
            "speedup": round(off / on, 2),
            "stats": CHECKPOINT_STATS.snapshot(),
        }

    import shutil
    import tempfile

    from repro.analysis.expcache import (EXPCACHE_STATS, ExperimentCache,
                                         ambient_modes, module_fingerprint)
    from repro.experiments import fig3_d2h

    # Cold computes + stores a fig3 cell; warm serves it from disk —
    # the exact pair of paths `repro fig3` takes on a miss and a hit.
    # A private temp directory keeps the bench off the real cache.
    tmpdir = tempfile.mkdtemp(prefix="repro-expcache-speed-")
    try:
        cache = ExperimentCache(root=tmpdir)
        key = {
            "experiment": "fig3",
            "code": module_fingerprint("repro.experiments.fig3_d2h"),
            "args": {"reps": 5},
            "modes": ambient_modes(),
        }

        def _expcache_cold() -> None:
            cache.store(key, fig3_d2h.format_table(fig3_d2h.run(reps=5)))

        def _expcache_warm() -> None:
            if cache.lookup(key) is None:
                raise RuntimeError("expcache bench: expected a warm hit")

        off = _best_wall(_expcache_cold, rounds)
        EXPCACHE_STATS.reset()
        on = _best_wall(_expcache_warm, rounds)
        cells["expcache_warm"] = {
            "feature": "expcache",
            "off_wall_s": round(off, 4),
            "on_wall_s": round(on, 6),
            "speedup": round(off / on, 2),
            "stats": EXPCACHE_STATS.snapshot(),
        }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    # Resilience-armed vs disarmed on the degradation workload.  Unlike
    # the cells above, "on" is expected to cost MORE wall time (hedge
    # timers + shield processes per offload); the gate is the overhead
    # ceiling, not a speedup floor.
    from repro.experiments import ext_degradation
    from repro.units import ms

    def _degradation(armed: bool) -> None:
        ext_degradation.run_cell("speed", None, armed=armed,
                                 duration_ns=ms(4.0))

    off = _best_wall(lambda: _degradation(False), rounds)
    on = _best_wall(lambda: _degradation(True), rounds)
    armed_cell = ext_degradation.run_cell("speed", None, armed=True,
                                          duration_ns=ms(4.0))
    cells["resilience_degradation"] = {
        "feature": "resilience",
        "off_wall_s": round(off, 4),
        "on_wall_s": round(on, 4),
        "speedup": round(off / on, 2),
        "overhead": round(on / off, 2),
        "stats": {
            "requests": armed_cell.requests,
            "hedges_fired": armed_cell.hedges_fired,
            "shed": armed_cell.shed,
            "cpu_fallbacks": armed_cell.cpu_fallbacks,
            "breaker_trips": armed_cell.breaker_trips,
        },
    }

    # ShardPool scaling on the 16-shard rack: the same trajectory at
    # jobs=1 (serial, in-process) vs jobs=min(4, cpus) (sticky workers).
    # The two runs are byte-identical by contract (tests/rack pins it);
    # this cell records the wall-clock win.  One round per side — the
    # rack bench is seconds long and best-of-N would double the bill.
    import os

    from repro.rack import RackConfig, run_rack

    rack_cfg = RackConfig(hosts=16, users=60_000, seed=42)
    rack_rounds = min(rounds, 2)
    cpus = os.cpu_count() or 1
    jobs = min(RACK_PARALLEL_JOBS, cpus)
    serial = _best_wall(lambda: run_rack(rack_cfg, jobs=1), rack_rounds)
    result = None

    def _rack_parallel() -> None:
        nonlocal result
        result = run_rack(rack_cfg, jobs=jobs)

    parallel = _best_wall(_rack_parallel, rack_rounds)
    cells["rack_parallel"] = {
        "feature": "shardpool",
        "off_wall_s": round(serial, 4),
        "on_wall_s": round(parallel, 4),
        "speedup": round(serial / parallel, 2),
        "cpus": cpus,
        "stats": {
            "hosts": rack_cfg.hosts,
            "served": result.served,
            "jobs": result.jobs,
            "routed_wires": result.routed_wires,
            "epochs": result.epochs,
        },
    }
    return cells


def _telemetry() -> Dict[str, Any]:
    """Feature counters accumulated across this process's benches, plus
    the streaming-digest memory cell: the byte cost of a
    :class:`~repro.sim.stats.StreamingLatencyStats` digest next to what
    an exact recorder would hold for the same sample count — the number
    ``ext_scale`` banks on staying flat."""
    import sys

    from repro.kernel.pagestore import PAGE_STORE
    from repro.sim.stats import StreamingLatencyStats

    import numpy as np

    stream = StreamingLatencyStats()
    n = 100_000
    samples = [(i * 2654435761) % 1_000_003 / 1.0 for i in range(n)]
    stream.extend(samples)
    digest_bytes = sys.getsizeof(stream._marks)
    for q in stream._marks.values():
        digest_bytes += sys.getsizeof(q)
    exact_p99 = float(np.percentile(np.asarray(samples), 99.0))
    return {
        "pagestore": PAGE_STORE.snapshot(),
        "streaming_stats": {
            "samples": n,
            "digest_bytes": digest_bytes,
            "exact_bytes_equivalent": n * 8,   # one float64 per sample
            "p99_rel_err": round(abs(stream.p99() - exact_p99) / exact_p99, 6),
        },
    }


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB (0 where unsupported)."""
    try:
        import resource as _resource
        rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB; macOS reports bytes.
        return rss // 1024 if _platform.system() == "Darwin" else rss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0


def measure(rounds: int = 3) -> Dict[str, Any]:
    """Run every benchmark; return the BENCH_speed.json payload.

    Engine benches keep the **best** of ``rounds`` (throughput noise is
    one-sided: interference only slows a run down); experiment timings
    keep the fastest wall time for the same reason.
    """
    engine = {}
    for name, fn in ENGINE_BENCHES.items():
        engine[name] = {
            "events_per_sec": round(max(fn() for _ in range(rounds)), 1)}
    experiments = {}
    for name, fn in EXPERIMENT_BENCHES.items():
        experiments[name] = {"wall_s": round(_best_wall(fn, rounds), 4)}
    return {
        "schema": SCHEMA,
        "rounds": rounds,
        "engine": engine,
        "experiments": experiments,
        "speedups": measure_speedups(rounds),
        "telemetry": _telemetry(),
        "peak_rss_kb": _peak_rss_kb(),
        "host": {
            "python": _platform.python_version(),
            "machine": _platform.machine(),
        },
    }


def render(payload: Dict[str, Any]) -> str:
    """Human-readable table for the CLI (the JSON stays the record)."""
    lines = [
        "Engine/experiment speed (see docs/PERFORMANCE.md)",
        f"{'benchmark':<16s} {'metric':>22s}",
    ]
    for name, cell in payload["engine"].items():
        lines.append(f"{name:<16s} {cell['events_per_sec']:>14,.0f} ev/s")
    for name, cell in payload["experiments"].items():
        lines.append(f"{name:<16s} {cell['wall_s']:>16.3f} s")
    for name, cell in payload.get("speedups", {}).items():
        lines.append(
            f"{name:<16s} {cell['speedup']:>16.2f} x "
            f"({cell['feature']} {cell['off_wall_s']:.3f}s -> "
            f"{cell['on_wall_s']:.3f}s)")
        stats = cell["stats"]
        if cell["feature"] == "resilience":
            lines.append(
                f"{'':<16s} {stats['requests']:>12,d} requests, "
                f"{stats['hedges_fired']:,d} hedges, "
                f"{stats['shed']:,d} shed, "
                f"overhead {cell['overhead']:.2f}x")
        elif cell["feature"] == "checkpoint-fork":
            lines.append(
                f"{'':<16s} {stats['restores']:>12,d} restores from "
                f"{stats['snapshots']:,d} snapshot(s), "
                f"{stats['largest_snapshot_bytes']:,d} B largest, "
                f"{stats['cold_warmups']:,d} cold warm-ups")
        elif cell["feature"] == "expcache":
            lines.append(
                f"{'':<16s} {stats['hits']:>12,d} hits / "
                f"{stats['misses']:,d} misses, "
                f"{stats['stores']:,d} stores")
        elif cell["feature"] == "shardpool":
            lines.append(
                f"{'':<16s} {stats['served']:>12,d} served on "
                f"{stats['hosts']:,d} hosts x {stats['jobs']:,d} jobs, "
                f"{stats['routed_wires']:,d} wires, "
                f"{stats['epochs']:,d} epochs "
                f"({cell['cpus']} cpu(s)"
                + ("" if rack_parallel_floor(stats["jobs"], cell["cpus"])
                   else ", unmeasured") + ")")
        elif cell["feature"] == "bulk":
            fallbacks = sum(stats["fallbacks"].values())
            lines.append(
                f"{'':<16s} {stats['total_lines']:>12,d} lines in "
                f"{stats['total_batches']:,d} batches, "
                f"{fallbacks:,d} fallbacks")
        else:
            lines.append(
                f"{'':<16s} {stats['hits']:>12,d} hits / "
                f"{stats['misses']:,d} misses, "
                f"{stats['evictions']:,d} evictions")
            bulk = cell.get("bulk_stats")
            if bulk:
                fallbacks = sum(bulk["fallbacks"].values())
                lines.append(
                    f"{'':<16s} {bulk['total_lines']:>12,d} lines in "
                    f"{bulk['total_batches']:,d} batches, "
                    f"{fallbacks:,d} fallbacks")
    tele = payload.get("telemetry")
    if tele:
        ps = tele["pagestore"]
        lines.append(
            f"{'pagestore':<16s} {ps['hit_rate']:>15.1%} hit rate, "
            f"{ps['bytes_deduped']:,d} B deduped, "
            f"{ps['live_bytes']:,d} B live")
        ss = tele["streaming_stats"]
        lines.append(
            f"{'stream digest':<16s} {ss['digest_bytes']:>12,d} B for "
            f"{ss['samples']:,d} samples (exact: "
            f"{ss['exact_bytes_equivalent']:,d} B), "
            f"p99 err {ss['p99_rel_err']:.2%}")
    lines.append(f"{'peak RSS':<16s} {payload['peak_rss_kb']:>14,d} KiB")
    return "\n".join(lines)


def write_json(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bench_speed_ratios(current: Dict[str, Any],
                        baseline: Dict[str, Any]) -> Dict[str, float]:
    """Per-bench current/baseline speed ratios (> 1 = current host is
    faster on that bench), keyed ``engine/<name>`` and
    ``experiments/<name>``, over every bench both payloads share."""
    ratios: Dict[str, float] = {}
    for name, base in baseline.get("engine", {}).items():
        cell = current.get("engine", {}).get(name)
        if cell and base.get("events_per_sec") and cell.get("events_per_sec"):
            ratios[f"engine/{name}"] = \
                cell["events_per_sec"] / base["events_per_sec"]
    for name, base in baseline.get("experiments", {}).items():
        cell = current.get("experiments", {}).get(name)
        if cell and base.get("wall_s") and cell.get("wall_s"):
            ratios[f"experiments/{name}"] = base["wall_s"] / cell["wall_s"]
    return ratios


def _host_speed_ratio(ratios: Dict[str, float],
                      exclude: str = "") -> float:
    """Geometric-mean host speed pooled across the shared benches,
    *excluding* the bench being judged (leave-one-out).

    Absolute ev/s and wall seconds are properties of the machine that
    measured them; the regression question is whether any *one* bench
    got slower relative to the rest of the suite.  Normalizing by the
    pooled ratio cancels uniform host-speed differences (a laptop
    checking CI's committed baseline, a CI runner checking a laptop's).
    The bench under judgement is left out of its own normalizer — a
    slipped bench must never vouch for itself, which matters most when
    the suite is small and one bench could drag the pooled mean.
    """
    import math

    pool = [r for name, r in ratios.items() if name != exclude]
    if not pool:
        return 1.0
    return math.exp(sum(math.log(r) for r in pool) / len(pool))


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            factor: float = 2.0) -> list:
    """Regression check: return a list of human-readable failures.

    A benchmark regresses when it is worse than ``factor`` times the
    baseline *after* normalizing by the pooled host-speed ratio (see
    :func:`_host_speed_ratio`): the committed baseline captures the
    suite's internal shape, not the absolute speed of the machine that
    produced it.  The factor is deliberately loose — CI runners are
    noisy; the gate only needs to catch order-of-magnitude slips like
    an accidentally quadratic hot path.  Benchmarks present in only one
    payload are skipped (adding a bench must not break CI).
    """
    failures = []
    ratios = _bench_speed_ratios(current, baseline)
    for name, base in baseline.get("engine", {}).items():
        cell = current.get("engine", {}).get(name)
        if cell is None:
            continue
        speed = _host_speed_ratio(ratios, exclude=f"engine/{name}")
        floor = base["events_per_sec"] * speed / factor
        if cell["events_per_sec"] < floor:
            failures.append(
                f"engine/{name}: {cell['events_per_sec']:,.0f} ev/s < "
                f"{floor:,.0f} (baseline {base['events_per_sec']:,.0f} "
                f"x host-speed {speed:.2f} / {factor:g})")
    for name, base in baseline.get("experiments", {}).items():
        cell = current.get("experiments", {}).get(name)
        if cell is None:
            continue
        speed = _host_speed_ratio(ratios, exclude=f"experiments/{name}")
        ceil = base["wall_s"] * factor / speed
        if cell["wall_s"] > ceil:
            failures.append(
                f"experiments/{name}: {cell['wall_s']:.3f}s > {ceil:.3f}s "
                f"(baseline {base['wall_s']:.3f}s x {factor:g} "
                f"/ host-speed {speed:.2f})")
    # Feature-speedup floors are absolute, not baseline-relative: the
    # bulk fast-forward and the work cache must keep paying for their
    # complexity (off/on wall times come from the same process, so
    # runner speed cancels out of the ratio).  The rack scaling cell's
    # floor follows the jobs its host could run.
    for name, cell in current.get("speedups", {}).items():
        floor = SPEEDUP_FLOORS.get(name)
        if name == "rack_parallel":
            floor = rack_parallel_floor(cell["stats"]["jobs"], cell["cpus"])
        if floor is not None and cell["speedup"] < floor:
            failures.append(
                f"speedups/{name}: {cell['feature']} speedup "
                f"{cell['speedup']:.2f}x < required {floor:g}x "
                f"({cell['off_wall_s']:.3f}s -> {cell['on_wall_s']:.3f}s)")
        ceiling = OVERHEAD_CEILINGS.get(name)
        if ceiling is not None and cell.get("overhead", 0.0) > ceiling:
            failures.append(
                f"speedups/{name}: {cell['feature']} armed overhead "
                f"{cell['overhead']:.2f}x > allowed {ceiling:g}x "
                f"({cell['off_wall_s']:.3f}s -> {cell['on_wall_s']:.3f}s)")
    # Peak RSS is a memory-regression gate: the streaming-stats and
    # page-interning work exists to keep the footprint flat, so a run
    # whose peak RSS blows past the baseline by ``factor`` fails even
    # if it is fast.
    base_rss = baseline.get("peak_rss_kb", 0)
    cur_rss = current.get("peak_rss_kb", 0)
    if base_rss and cur_rss and cur_rss > base_rss * factor:
        failures.append(
            f"peak_rss_kb: {cur_rss:,d} KiB > {base_rss * factor:,.0f} "
            f"(baseline {base_rss:,d} KiB x {factor:g})")
    return failures
