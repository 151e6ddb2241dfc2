"""The four end-to-end workloads of the benchmark.

Each workload turns a seed into inputs and a list of :class:`Op`.  An op
is one call into a public function of the simulator (or one loop of
public calls over the generated inputs); it returns an output whose
deterministic text is hashed into a golden digest, and it has its own
invariant.  :func:`build` does every import and input generation the
workload needs, so the time until it returns is the workload's set-up.

Why these four (README.md has the long form):

* ``kvs_tail`` -- the paper's headline Fig. 8 sweep: engine, timers, apps,
  rng and checkpoint forks; YCSB-a (writes, direct reclaim) beside
  read-only YCSB-c.
* ``device_paths`` -- the characterization half (Table III, Fig. 3-6,
  Table IV): mem, devices, interconnect, host and the fast-path trains.
* ``offload_codec`` -- the only workload that runs the real codecs, the
  work cache and the page store, through zswap and ksm on cpu and cxl.
* ``rack`` -- the only workload that runs the rack, ShardPool IPC, the
  streaming stats merge and numpy serving, with a host-kill cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

WORKLOADS = ("kvs_tail", "device_paths", "offload_codec", "rack")

#: Input sizes.  ``bench`` is what BENCHMARK.json runs: 2-4 s of ops per
#: run on a 2-core host, so a 20 s measurement holds 5-8 runs.
#: ``smoke`` is the self-check size.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "bench": {
        "kvs_tail": {"duration_ms": 25},
        "device_paths": {"fig3": 6, "fig4": 6, "fig5": 6, "fig6": 2,
                         "table4": 4},
        "offload_codec": {"pages": 600, "vm_pages": 120},
        "rack": {"hosts": 16, "users": 100_000, "kill_users": 20_000},
    },
    "smoke": {
        "kvs_tail": {"duration_ms": 5},
        "device_paths": {"fig3": 2, "fig4": 2, "fig5": 2, "fig6": 1,
                         "table4": 3},
        "offload_codec": {"pages": 40, "vm_pages": 8},
        "rack": {"hosts": 8, "users": 10_000, "kill_users": 5_000},
    },
}

FIG8_FEATURES = ("zswap", "ksm")
FIG8_BACKENDS = ("none", "cpu", "pcie-dma", "cxl")
CODEC_TRANSPORTS = ("cpu", "cxl")
CODEC_TEMPLATES = 16
VM_COUNT = 4
RACK_KILL = (5, 0.4)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run()`` is the measured call, ``text`` maps
    its output to the deterministic text that is digested, and ``check``
    returns an invariant breach (or None)."""

    name: str
    run: Callable[[], Any]
    text: Callable[[Any], str]
    check: Callable[[Any], Optional[str]]


def _no_invariant(_out: Any) -> Optional[str]:
    return None


# -- kvs_tail ---------------------------------------------------------------


def _fig8_check(result: Any) -> Optional[str]:
    empty = [key for key, cell in result.cells.items() if cell.requests <= 0]
    return f"cells served no requests: {empty}" if empty else None


def _kvs_tail(seed: int, size: Dict[str, int], jobs: int) -> List[Op]:
    from repro.experiments import fig8_tail_latency as fig8
    from repro.units import ms

    scenario = fig8.ScenarioConfig(duration_ns=ms(size["duration_ms"]))
    return [
        Op(f"fig8.{feature}.{backend}",
           partial(fig8.run, features=(feature,), backends=(backend,),
                   workloads=("a", "c"), scenario=scenario, seed=seed,
                   jobs=1),
           lambda result: repr(result.cells), _fig8_check)
        for feature in FIG8_FEATURES for backend in FIG8_BACKENDS
    ]


# -- device_paths -----------------------------------------------------------


def _table3_check(result: Any) -> Optional[str]:
    if result.all_match:
        return None
    return "Table III cells differ from the paper: " + str(
        sorted(key for key, ok in result.matches_expected().items() if not ok))


def _device_paths(seed: int, size: Dict[str, int], jobs: int) -> List[Op]:
    from repro.experiments import (
        fig3_d2h,
        fig4_d2d,
        fig5_h2d,
        fig6_transfer,
        table3_coherence,
        table4_breakdown,
    )

    return [
        Op("table3", partial(table3_coherence.run, seed=seed),
           table3_coherence.format_table, _table3_check),
        Op("fig3", partial(fig3_d2h.run, reps=size["fig3"], seed=seed),
           fig3_d2h.format_table, _no_invariant),
        Op("fig4", partial(fig4_d2d.run, reps=size["fig4"], seed=seed),
           fig4_d2d.format_table, _no_invariant),
        Op("fig5", partial(fig5_h2d.run, reps=size["fig5"], seed=seed),
           fig5_h2d.format_table, _no_invariant),
        Op("fig6", partial(fig6_transfer.run, reps=size["fig6"], seed=seed,
                           jobs=1),
           fig6_transfer.format_table, _no_invariant),
        Op("table4", partial(table4_breakdown.run, seed=seed,
                             reps=size["table4"]),
           table4_breakdown.format_table, _no_invariant),
    ]


# -- offload_codec ----------------------------------------------------------


def _page(tag: str, body: bytes, page_size: int) -> bytes:
    """A page shaped like a serialized object: a repeated text header,
    an incompressible body, and a zero tail (about 2x compressible)."""
    header = (f"obj-{tag}|".encode() * 64)[:512]
    return (header + body).ljust(page_size, b"\x00")


class _CodecPass:
    """One transport's pass: a fresh platform with zswap and ksm on one
    functional offload engine.  The three ops run in order and share the
    handles the store op returns."""

    def __init__(self, seed: int, transport: str, pages: List[bytes],
                 vm_pages: int):
        from repro.core.offload import OffloadEngine
        from repro.core.platform import Platform
        from repro.kernel.ksm import Ksm
        from repro.kernel.swapdev import SwapDevice
        from repro.kernel.vm import make_vm_fleet
        from repro.kernel.zswap import Zswap
        from repro.sim.rng import DeterministicRng

        self.platform = Platform(seed=seed)
        engine = OffloadEngine(self.platform, functional=True)
        self.pages = pages
        # Half the pages fit the pool, so stores also write back and
        # loads hit both the pool and the swap device.
        self.zswap = Zswap(engine, SwapDevice(self.platform.sim), transport,
                           managed_pages=max(1, len(pages) // 2))
        fleet = make_vm_fleet(VM_COUNT, vm_pages, shared_fraction=0.5,
                              rng=DeterministicRng(seed).fork(2))
        self.ksm = Ksm(engine, transport, fleet, functional=True)
        self.handles: List[int] = []

    def store(self) -> Any:
        run = self.platform.sim.run_process
        self.handles = [run(self.zswap.store(page))[0] for page in self.pages]
        return self.handles, self.platform.sim.now

    def load(self) -> Any:
        run = self.platform.sim.run_process
        loaded = [(i, run(self.zswap.load(self.handles[i])))
                  for i in range(0, len(self.handles), 2)]
        corrupt = [i for i, (data, _hit) in loaded if data != self.pages[i]]
        hits = [hit for _i, (_data, hit) in loaded]
        return hits, corrupt, self.platform.sim.now

    def scan(self) -> Any:
        run = self.platform.sim.run_process
        merged = (run(self.ksm.full_scan()), run(self.ksm.full_scan()))
        return merged, self.ksm.stats, self.platform.sim.now


def _load_check(out: Any) -> Optional[str]:
    _hits, corrupt, _now = out
    return f"{len(corrupt)} pages did not round-trip" if corrupt else None


def _load_text(out: Any) -> str:
    hits, _corrupt, now = out
    return repr((hits, now))


def _offload_codec(seed: int, size: Dict[str, int], jobs: int) -> List[Op]:
    from repro.sim.rng import DeterministicRng
    from repro.units import PAGE_SIZE

    rng = DeterministicRng(seed).fork(1)
    templates = [_page(f"t{i}", rng.random_bytes(1536), PAGE_SIZE)
                 for i in range(CODEC_TEMPLATES)]
    pages = [_page(str(i), rng.random_bytes(1536), PAGE_SIZE) if i % 2 == 0
             else templates[rng.randint(0, CODEC_TEMPLATES)]
             for i in range(size["pages"])]
    ops = []
    # The cxl pass replays the cpu pass's pages, as a backend sweep does.
    for transport in CODEC_TRANSPORTS:
        codec = _CodecPass(seed, transport, pages, size["vm_pages"])
        ops += [
            Op(f"zswap.{transport}.store", codec.store, repr, _no_invariant),
            Op(f"zswap.{transport}.load", codec.load, _load_text,
               _load_check),
            Op(f"ksm.{transport}.scan", codec.scan, repr, _no_invariant),
        ]
    return ops


# -- rack -------------------------------------------------------------------


def _steady_check(result: Any) -> Optional[str]:
    users = result.cfg.users
    if result.distinct_users != users:
        return f"served {result.distinct_users} distinct users of {users}"
    return None


def _kill_check(result: Any) -> Optional[str]:
    # Requests in flight to the victim are lost, so at this size a few
    # hundred of its users may go unserved: distinct_users is not checked.
    if result.killed != RACK_KILL[0] or result.rebalances < 1:
        return f"host {RACK_KILL[0]} was not killed and rebalanced"
    if min(result.availability) <= 0:
        return f"an availability slice is empty: {result.availability}"
    return None


def _rack_text(result: Any) -> str:
    return repr(result.stats())


def _rack(seed: int, size: Dict[str, int], jobs: int) -> List[Op]:
    from repro.rack.cluster import run_rack
    from repro.rack.host import RackConfig

    steady = RackConfig(hosts=size["hosts"], users=size["users"], seed=seed)
    killed = RackConfig(hosts=size["hosts"], users=size["kill_users"],
                        seed=seed, kill=RACK_KILL)
    return [
        Op("rack.steady", partial(run_rack, steady, jobs=jobs), _rack_text,
           _steady_check),
        Op("rack.kill", partial(run_rack, killed, jobs=jobs), _rack_text,
           _kill_check),
    ]


_BUILDERS = {"kvs_tail": _kvs_tail, "device_paths": _device_paths,
             "offload_codec": _offload_codec, "rack": _rack}


def build(workload: str, seed: int, size: str, jobs: int) -> List[Op]:
    """Import what ``workload`` needs and generate its inputs from
    ``seed``; return its ops in run order."""
    return _BUILDERS[workload](seed, SIZES[size][workload], jobs)
