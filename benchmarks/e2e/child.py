"""One benchmark run in a fresh interpreter (started by ``run.py``).

The process builds the workload's inputs, notes the monotonic time at
which the first op is about to start, runs the ops one at a time, and
prints one JSON object as its last stdout line: that time, each op's
wall time, output digest and failure, the counters the simulator's
public stats objects kept during the ops, and its peak RSS.

``--mode setup`` stops after the inputs are built (a cold-start sample);
``--mode trace`` also runs each op under cProfile, folds the profile into
layers (``layers.py``) and records spans workload -> op ->
``Simulator.run`` / ``ShardPool.step``, written as Chrome trace-event
JSON when ``--trace-dir`` is given.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import layers
import workloads

# Cumulative values read from the simulator's process-global stats
# objects; a module not imported yet reads as zero.
_SOURCES = (
    ("repro.sim.timers", "WHEEL_STATS", {
        "sim.timers.fired": "fired", "sim.timers.cancelled": "cancelled",
        "sim.timers.reaped": "reaped", "sim.timers.cascades": "cascades"}),
    ("repro.sim.bulk", "BULK_STATS", {
        "core.fastpath.bulk_lines": "total_lines",
        "core.fastpath.bulk_batches": "total_batches"}),
    ("repro.kernel.workcache", "WORK_CACHE", {
        "workcache.hits": "hits", "workcache.misses": "misses",
        "kernel.cache.workcache_evictions": "evictions"}),
    ("repro.kernel.pagestore", "PAGE_STORE", {
        "pagestore.hits": "hits", "pagestore.misses": "misses",
        "kernel.cache.pagestore_live_bytes": "live_bytes"}),
    ("repro.sim.checkpoint", "CHECKPOINT_STATS", {
        "sim.checkpoint.restores": "restores",
        "sim.checkpoint.largest_bytes": "largest_snapshot_bytes"}),
    ("repro.rack.fabric", "FABRIC_STATS", {
        "rack.epochs_run": "epochs_run",
        "rack.epochs_skipped": "epochs_skipped", "rack.wires": "wires",
        "rack.framed_bytes": "framed_bytes", "rack.bounces": "bounces"}),
)
# Gauges report their largest reading after any op; the rest are summed
# per-op deltas.
_GAUGES = ("kernel.cache.pagestore_live_bytes", "sim.checkpoint.largest_bytes")


def _now() -> float:
    return time.perf_counter()  # reprolint: disable=DET101 host time is the measurand


def read_stats() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for module, name, fields in _SOURCES:
        holder = getattr(sys.modules.get(module), name, None)
        for key, attr in fields.items():
            out[key] = getattr(holder, attr) if holder is not None else 0
    bulk = getattr(sys.modules.get("repro.sim.bulk"), "BULK_STATS", None)
    out["bulk.fallbacks"] = sum(bulk.fallbacks.values()) if bulk else 0
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Probe:
    """Counts simulated events across every ``Simulator.run`` call and
    records spans: the workload, each op and, when tracing, every
    ``Simulator.run`` and ``ShardPool.step`` under the op that issued
    it."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.events = 0
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.op = ""

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"name": name, "start": _now(), "end": None,
                           "parent": self._open[-1] if self._open else None,
                           "op": self.op})
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = _now()
        self._open.pop()

    def install(self) -> None:
        from repro.sim.engine import Simulator
        probe = self
        run = Simulator.run

        def counted_run(sim: Any, until: Optional[float] = None) -> float:
            before = sim._seq
            sid = probe.begin("Simulator.run") if probe.tracing else -1
            try:
                return run(sim, until)
            finally:
                probe.events += sim._seq - before
                if sid >= 0:
                    probe.end(sid)

        Simulator.run = counted_run
        parallel = sys.modules.get("repro.sim.parallel")
        if self.tracing and parallel is not None:
            step = parallel.ShardPool.step
            worker = parallel._shard_worker_main

            def timed_step(pool: Any, payloads: Any) -> Any:
                sid = probe.begin("ShardPool.step")
                try:
                    return step(pool, payloads)
                finally:
                    probe.end(sid)

            def unprofiled_worker(*args: Any) -> None:
                # A forked shard worker inherits the coordinator's
                # profiler, whose data it can never report back; drop it
                # so workers run at untraced speed.
                sys.setprofile(None)
                worker(*args)

            parallel.ShardPool.step = timed_step
            parallel._shard_worker_main = unprofiled_worker


def run_ops(ops: List[workloads.Op], probe: Probe,
            profiler: Optional[cProfile.Profile]) -> Dict[str, Any]:
    results = []
    totals: Dict[str, float] = {}
    gauges: Dict[str, float] = {key: 0 for key in _GAUGES}
    workload_span = probe.begin("workload")
    for op in ops:
        probe.op = op.name
        before = read_stats()
        span = probe.begin(op.name)
        error = None
        out = None
        start = _now()
        if profiler is not None:
            profiler.enable()
        try:
            out = op.run()
        except Exception:  # an op that raises is counted as failed
            error = traceback.format_exc(limit=8)
        finally:
            if profiler is not None:
                profiler.disable()
        wall = _now() - start
        probe.end(span)
        after = read_stats()
        for key, value in after.items():
            if key in gauges:
                gauges[key] = max(gauges[key], value)
            else:
                totals[key] = totals.get(key, 0) + value - before[key]
        digest = None
        if error is None:
            try:
                digest = hashlib.sha256(op.text(out).encode()).hexdigest()
                error = op.check(out)
            except Exception:  # a broken output is a failed op
                error = traceback.format_exc(limit=8)
        results.append({"name": op.name, "wall_s": wall, "digest": digest,
                        "error": error})
    probe.end(workload_span)
    # The Simulator.run wrapper goes in after set-up, so it counted the
    # ops' events only.
    totals["sim.events"] = probe.events
    return {"ops": results, "counters": _counters(totals, gauges)}


def _counters(totals: Dict[str, float],
              gauges: Dict[str, float]) -> Dict[str, float]:
    out = {key: value for key, value in totals.items()
           if not key.startswith(("workcache.", "pagestore.", "bulk."))}
    out.update(gauges)
    out["core.fastpath.fallback_ratio"] = _ratio(
        totals["bulk.fallbacks"],
        totals["bulk.fallbacks"] + totals["core.fastpath.bulk_batches"])
    out["kernel.cache.workcache_hit_ratio"] = _ratio(
        totals["workcache.hits"],
        totals["workcache.hits"] + totals["workcache.misses"])
    out["kernel.cache.pagestore_hit_ratio"] = _ratio(
        totals["pagestore.hits"],
        totals["pagestore.hits"] + totals["pagestore.misses"])
    return out


def write_trace(path: str, probe: Probe, folded: Dict[str, Any]) -> None:
    origin = probe.spans[0]["start"]
    events = [{"name": span["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": (span["start"] - origin) * 1e6,
               "dur": (span["end"] - span["start"]) * 1e6,
               "args": {"id": sid, "parent": span["parent"],
                        "op": span["op"]}}
              for sid, span in enumerate(probe.spans)]
    with open(path + ".trace.json", "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    with open(path + ".layers.json", "w") as fh:
        json.dump(folded, fh, indent=1, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace-dir")
    parser.add_argument("--label", default="traced")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, args.size, args.jobs)
    ready = time.monotonic()  # reprolint: disable=DET101 set-up ends here, read on the parent's clock
    report: Dict[str, Any] = {"ready": ready}
    if args.mode != "setup":
        probe = Probe(tracing=args.mode == "trace")
        probe.install()
        profiler = cProfile.Profile() if probe.tracing else None
        report.update(run_ops(ops, probe, profiler))
        if profiler is not None:
            folded = layers.fold(pstats.Stats(profiler).stats)
            report["layers"] = folded
            report["step_s"] = sum(span["end"] - span["start"]
                                   for span in probe.spans
                                   if span["name"] == "ShardPool.step")
            if args.trace_dir:
                os.makedirs(args.trace_dir, exist_ok=True)
                write_trace(os.path.join(
                    args.trace_dir,
                    f"{args.workload}-seed{args.seed}-{args.label}"),
                    probe, folded)
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    report["maxrss_kib"] = max(usage)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
