"""Extension experiment: scale-out tail latency with O(1)-memory stats.

Fig 8 runs long enough to read a stable p99 and keeps every latency
sample live — fine at ~10^5 requests, hopeless at 10^7.  This
experiment drives the *same* Redis + zswap pipeline (open-loop YCSB
clients, cxl-backed kswapd, antagonist, direct reclaim) for millions of
requests with one shared :class:`~repro.sim.stats.StreamingLatencyStats`
recorder across every client, and proves two things:

* **flat RSS** — the run samples the process's peak RSS at checkpoints;
  with streaming stats (and the interned page store) the footprint must
  not grow with request count.  The CI smoke job gates on the ceiling.
* **tail accuracy** — with ``compare_exact=True`` the identical
  simulation (same seed, same arrivals, same service times) runs twice,
  once per recorder flavour, and the report carries the relative error
  of the streamed P50/P99/P99.9 against exact.  docs/PERFORMANCE.md
  pins the tolerances.

Stdout is deterministic for a given (requests, rate, servers, seed,
mode); the RSS trace — wall-clock state of this process, not simulated
state — goes to stderr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import flags
from repro.apps.antagonist import Antagonist
from repro.apps.kvs import RedisServer
from repro.apps.latency import OpenLoopClient
from repro.apps.node import MemoryPressure, ServerNode
from repro.apps.ycsb import YcsbWorkload
from repro.config import sub_numa_half_system
from repro.core.offload import OffloadEngine
from repro.core.platform import Platform
from repro.errors import WorkloadError
from repro.experiments.fig8_tail_latency import ScenarioConfig
from repro.kernel.daemons import CostProfile, ReclaimDaemon
from repro.sim.checkpoint import snapshot
from repro.sim.stats import (LatencyRecorder, LatencyStats,
                             StreamingLatencyStats)
from repro.units import ms

#: Documented accuracy bounds for streamed percentiles vs exact, on the
#: heavy-tailed open-loop latency distribution this pipeline produces
#: (docs/PERFORMANCE.md carries the measured values).
STREAM_TOLERANCE = {"p50": 0.01, "p99": 0.02, "p999": 0.02}


@dataclass(frozen=True)
class ScaleResult:
    """One scale run (plus an optional exact-recorder shadow run)."""

    mode: str                       # recorder flavour the headline used
    requests: int
    p50_ns: float
    p99_ns: float
    p999_ns: float
    mean_ns: float
    rss_kb: Tuple[int, ...]         # peak RSS at each checkpoint
    exact_rel_err: Optional[Dict[str, float]] = None

    @property
    def rss_growth(self) -> float:
        """Last-checkpoint peak RSS over the first — the flatness
        number the smoke job gates on (1.0 = perfectly flat)."""
        if len(self.rss_kb) < 2 or self.rss_kb[0] == 0:
            return 1.0
        return self.rss_kb[-1] / self.rss_kb[0]


def _peak_rss_kb() -> int:
    try:
        import platform as _platform
        import resource as _resource
        rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        return rss // 1024 if _platform.system() == "Darwin" else rss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0


def _scale_warmup(rate_per_s: float, seed: int):
    """The request-count-independent half of a scale run: platform,
    pressure, node, the cxl-calibrated reclaim daemon (the calibration
    sub-simulation is the expensive part), and the antagonist — built
    but not spawned, so the returned root is quiescent and
    checkpointable.  The headline and ``--compare-exact`` shadow runs
    fork from one snapshot instead of calibrating twice."""
    scenario = ScenarioConfig(rate_per_s=rate_per_s)
    platform = Platform(sub_numa_half_system(), seed=seed)
    sim, rng = platform.sim, platform.rng
    pressure = MemoryPressure.sized(1 << 17)
    pressure.free_pages = pressure.low_pages + 2048
    node = ServerNode(sim, rng.fork(1), scenario.zswap_app_cores, pressure)
    calib = Platform(seed=seed + 1)
    profile = CostProfile.from_engine(calib, OffloadEngine(calib), "cxl")
    daemon = ReclaimDaemon(node, profile)
    antagonist = Antagonist(sim, pressure, rng.fork(2),
                            burst_pages=scenario.antagonist_burst_pages,
                            period_ns=scenario.antagonist_period_ns)
    return (platform, node, daemon, antagonist)


def _scale_drive(root, requests: int, rate_per_s: float, servers: int,
                 workload_name: str, recorder: LatencyRecorder,
                 checkpoints: int) -> Tuple[int, Tuple[int, ...]]:
    """Run the fig8-style zswap pipeline until ``requests`` samples have
    landed in ``recorder``; returns (count, rss trace).  Spawn order
    matches the pre-split code (kswapd, antagonist, clients), so output
    is byte-identical whether ``root`` is fresh or checkpoint-forked."""
    platform, node, daemon, antagonist = root
    sim, rng = platform.sim, platform.rng

    # Clients stop at their horizon; run long enough that the Poisson
    # arrival count comfortably clears the target, then stop stepping
    # the moment it does.
    est_ns = requests / (servers * rate_per_s) * 1e9
    horizon_ns = est_ns * 1.5 + ms(50.0)

    sim.spawn(daemon.run(horizon_ns), "kswapd")
    sim.spawn(antagonist.run(horizon_ns), "antagonist")

    for i in range(servers):
        server = RedisServer(f"redis{i}", rng.fork(10 + i))
        workload = YcsbWorkload(workload_name, rng.fork(20 + i))
        client = OpenLoopClient(
            node, server, node.core(i), workload, rng.fork(30 + i),
            rate_per_s, direct_reclaim=daemon.inline_reclaim,
            stats=recorder)
        sim.spawn(client.run(horizon_ns), f"client{i}")

    rss = []
    step_ns = est_ns / checkpoints
    t = 0.0
    while recorder.count < requests and t < horizon_ns:
        t += step_ns
        sim.run(until=t)
        rss.append(_peak_rss_kb())
    if recorder.count < requests:
        raise WorkloadError(
            f"scale run drained at {recorder.count}/{requests} requests")
    return recorder.count, tuple(rss)


def _drive(requests: int, rate_per_s: float, servers: int,
           workload_name: str, seed: int, recorder: LatencyRecorder,
           checkpoints: int) -> Tuple[int, Tuple[int, ...]]:
    """Cold path kept as the pinned reference: warm-up + drive."""
    return _scale_drive(_scale_warmup(rate_per_s, seed), requests,
                        rate_per_s, servers, workload_name, recorder,
                        checkpoints)


def run(requests: int = 5_000_000, rate_per_s: float = 32_000.0,
        servers: int = 4, workload: str = "a", seed: int = 61,
        mode: Optional[str] = None, checkpoints: int = 20,
        compare_exact: bool = False) -> ScaleResult:
    """Drive ``requests`` total requests through the scale pipeline.

    ``mode`` picks the headline recorder (``None`` → ambient
    ``stats`` flag of :mod:`repro.flags`, ``REPRO_STATS``);
    ``compare_exact`` re-runs the identical simulation with an exact
    recorder and reports the streamed percentiles' relative error.
    """
    effective = mode if mode is not None else flags.get("stats")
    recorder: LatencyRecorder = (StreamingLatencyStats()
                                 if effective == "stream"
                                 else LatencyStats())
    if flags.get("checkpoint"):
        # Warm up (platform + cxl cost calibration) once; the headline
        # run — and the shadow run below, when requested — each fork
        # from the snapshot.  Byte-identical to the cold path.
        cp = snapshot(_scale_warmup(rate_per_s, seed), label="ext_scale")

        def drive(rec: LatencyRecorder) -> Tuple[int, Tuple[int, ...]]:
            return _scale_drive(cp.restore(), requests, rate_per_s,
                                servers, workload, rec, checkpoints)
    else:
        def drive(rec: LatencyRecorder) -> Tuple[int, Tuple[int, ...]]:
            return _drive(requests, rate_per_s, servers, workload, seed,
                          rec, checkpoints)

    count, rss = drive(recorder)

    exact_rel_err = None
    if compare_exact and effective == "stream":
        shadow = LatencyStats()
        drive(shadow)
        exact_rel_err = {
            name: abs(recorder.percentile(pct) - shadow.percentile(pct))
            / shadow.percentile(pct)
            for name, pct in (("p50", 50.0), ("p99", 99.0),
                              ("p999", 99.9))}

    return ScaleResult(
        mode=effective, requests=count,
        p50_ns=recorder.p50(), p99_ns=recorder.p99(),
        p999_ns=recorder.p999(), mean_ns=recorder.mean(),
        rss_kb=rss, exact_rel_err=exact_rel_err)


def format_table(result: ScaleResult) -> str:
    lines = [
        "Extension: scale-out Redis tail latency "
        f"({result.mode} stats, {result.requests:,d} requests)",
        f"{'p50':>8s} {result.p50_ns / 1000:12.2f} us",
        f"{'p99':>8s} {result.p99_ns / 1000:12.2f} us",
        f"{'p99.9':>8s} {result.p999_ns / 1000:12.2f} us",
        f"{'mean':>8s} {result.mean_ns / 1000:12.2f} us",
    ]
    if result.exact_rel_err is not None:
        lines.append("stream vs exact (relative error / tolerance):")
        for name, err in result.exact_rel_err.items():
            tol = STREAM_TOLERANCE[name]
            flag = "ok" if err <= tol else "OVER"
            lines.append(f"{name:>8s} {err:12.4%} / {tol:.0%}  {flag}")
    return "\n".join(lines)


def format_rss_trace(result: ScaleResult) -> str:
    """Operator-facing RSS trace (stderr: wall-clock process state)."""
    if not result.rss_kb:
        return "rss trace: unavailable"
    return (f"rss trace ({len(result.rss_kb)} checkpoints): "
            f"{result.rss_kb[0]:,d} -> {result.rss_kb[-1]:,d} KiB "
            f"(growth {result.rss_growth:.3f}x)")
