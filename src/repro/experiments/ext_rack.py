"""Extension experiment: multi-host rack KVS with host-kill rebalance.

Two cells over the :mod:`repro.rack` cluster:

* **baseline** — ``hosts`` full platforms shard ``users`` simulated
  users; reports merged latency percentiles, cross-shard traffic, and
  distinct-user coverage (every user must be served at least once).
* **host_kill** — the same rack at a tenth of the users, with one
  host's CXL link scheduled dead mid-run: the RAS machinery detects
  FAILED, the coordinator rebalances the ring, and the report carries
  the time-sliced availability histogram (every slice must stay > 0)
  plus migration/breaker accounting.

Stdout is deterministic for a given ``(hosts, users, seed)`` — and
byte-identical for any ``--jobs``, which the CI rack-smoke job diffs.
The RSS trace (wall-clock state of this process, not simulated state)
goes to stderr; growth is measured from the first steady-state sample
(after :data:`RSS_SETTLE_FRACTION` of the run, once the bounded hot
tiers have filled) to the last, so it reads "memory does not grow with
request count" rather than "warm-up allocates memory".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.rack import RackConfig, run_rack
from repro.rack.cluster import AVAIL_BUCKETS

#: Fraction of the run after which RSS is considered steady state.  The
#: bounded hot tiers hit their eviction steady state by ~50 % of the
#: 16-host/10M default (measured: peak RSS is byte-flat from 56 % on);
#: before that the stores are still filling toward capacity, which is
#: warm-up, not growth-with-request-count.
RSS_SETTLE_FRACTION = 0.5


def _peak_rss_kb() -> int:
    try:
        import platform as _platform
        import resource as _resource
        rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        return rss // 1024 if _platform.system() == "Darwin" else rss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0


@dataclass(frozen=True)
class RackCell:
    """One rack run's deterministic summary plus its RSS trace."""

    name: str
    stats: Dict[str, float]
    rss_kb: Tuple[int, ...]
    #: Per-run fabric/fast-forward counter delta (stderr telemetry only;
    #: the stdout table never includes it).
    fabric_stats: Dict[str, int] = None  # type: ignore[assignment]

    @property
    def rss_growth(self) -> float:
        """Steady-state peak-RSS growth (see module docstring)."""
        if len(self.rss_kb) < 2 or self.rss_kb[0] == 0:
            return 1.0
        return self.rss_kb[-1] / self.rss_kb[0]


@dataclass(frozen=True)
class RackReport:
    hosts: int
    users: int
    seed: int
    baseline: RackCell
    host_kill: Optional[RackCell]


def _run_cell(name: str, cfg: RackConfig, jobs,
              checkpoints: int) -> RackCell:
    n_epochs = int(math.ceil(cfg.duration_ns / cfg.fabric.epoch_ns))
    settle = int(n_epochs * RSS_SETTLE_FRACTION)
    trace: list = []

    def probe(epoch: int) -> None:
        if epoch >= settle:
            trace.append(_peak_rss_kb())

    every = max(1, n_epochs // max(checkpoints, 2))
    result = run_rack(cfg, jobs=jobs, probe=probe, probe_every=every)
    trace.append(_peak_rss_kb())
    return RackCell(name=name, stats=result.stats(), rss_kb=tuple(trace),
                    fabric_stats=result.fabric_stats)


def run(hosts: int = 16, users: int = 10_000_000, seed: int = 42,
        jobs=None, kill_frac: float = 0.4,
        checkpoints: int = 20, skip_kill: bool = False) -> RackReport:
    """Run the baseline cell and (unless ``skip_kill``) the kill cell.

    The kill cell runs at ``users // 10`` — the availability and
    rebalance properties it checks don't need the full population — and
    kills host ``hosts // 3`` at ``kill_frac`` of the run.
    """
    baseline = _run_cell(
        "baseline", RackConfig(hosts=hosts, users=users, seed=seed),
        jobs, checkpoints)
    kill_cell = None
    if not skip_kill:
        # One user per key bucket at minimum (RackConfig validates
        # users >= buckets); the availability/rebalance properties the
        # cell checks don't need more than a tenth of the population.
        min_users = RackConfig.__dataclass_fields__["buckets"].default
        kill_cfg = RackConfig(hosts=hosts, users=max(users // 10, min_users),
                              seed=seed, kill=(hosts // 3, kill_frac))
        kill_cell = _run_cell("host_kill", kill_cfg, jobs, checkpoints)
    return RackReport(hosts=hosts, users=users, seed=seed,
                      baseline=baseline, host_kill=kill_cell)


_ROWS = (
    ("requests", "requests", "{:,.0f}"),
    ("served", "served", "{:,.0f}"),
    ("distinct users", "distinct_users", "{:,.0f}"),
    ("dropped", "dropped", "{:,.0f}"),
    ("remote round-trips", "remote_sent", "{:,.0f}"),
    ("migrated records", "migrated_records", "{:,.0f}"),
    ("rebalances", "rebalances", "{:,.0f}"),
    ("breaker trips", "breaker_trips", "{:,.0f}"),
    ("fabric wires", "routed_wires", "{:,.0f}"),
    ("p50", "p50_us", "{:,.2f} us"),
    ("p99", "p99_us", "{:,.2f} us"),
    ("mean", "mean_us", "{:,.2f} us"),
)


def format_table(report: RackReport) -> str:
    lines = [
        f"Extension: rack-scale KVS ({report.hosts} hosts, "
        f"{report.users:,d} users, seed {report.seed})",
    ]
    cells = [report.baseline]
    if report.host_kill is not None:
        cells.append(report.host_kill)
    for cell in cells:
        lines.append(f"-- {cell.name} --")
        for label, key, fmt in _ROWS:
            lines.append(f"{label:>20s} {fmt.format(cell.stats[key]):>16s}")
        if cell.name == "host_kill":
            avail = [int(cell.stats[f"avail_{i}"])
                     for i in range(AVAIL_BUCKETS)]
            floor = min(avail)
            lines.append(f"{'availability/slice':>20s} "
                         f"{' '.join(str(a) for a in avail)}")
            lines.append(f"{'min slice':>20s} {floor:>16,d}  "
                         + ("ok" if floor > 0 else "OUTAGE"))
    return "\n".join(lines)


def format_rss_trace(report: RackReport) -> str:
    """Operator-facing RSS + fabric telemetry (stderr: wall-clock and
    counter state — never part of the deterministic stdout contract)."""
    out = []
    for cell in (report.baseline, report.host_kill):
        if cell is None:
            continue
        if not cell.rss_kb:
            out.append(f"{cell.name}: rss trace unavailable")
        else:
            out.append(f"{cell.name}: rss {cell.rss_kb[0]:,d} -> "
                       f"{cell.rss_kb[-1]:,d} KiB over {len(cell.rss_kb)} "
                       f"samples (growth {cell.rss_growth:.3f}x)")
        fs = cell.fabric_stats
        if fs:
            demoted = (fs["demoted_inflight"] + fs["demoted_backlog"]
                       + fs["demoted_directives"] + fs["demoted_kill"])
            out.append(
                f"{cell.name}: fabric epochs {fs['epochs_run']:,d} run "
                f"/ {fs['epochs_skipped']:,d} skipped "
                f"({fs['ff_jumps']:,d} jumps, {demoted:,d} demoted); "
                f"{fs['wires']:,d} wires ({fs['framed_bytes']:,d} B "
                f"framed), {fs['bounces']:,d} bounces")
    return "\n".join(out)
