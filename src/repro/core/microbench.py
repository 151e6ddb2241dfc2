"""The memo-style characterization microbenchmark (SV).

For every access path the paper measures, this harness

1. prepares the caches into the scenario's state (LLC hit/miss, DMC
   hit/miss + coherence state, bias mode) on *fresh* addresses,
2. measures **latency** by running each access to completion back-to-back
   (dependent accesses, no overlap), and
3. measures **bandwidth** by issuing the scenario's N accesses pipelined
   and timing first-issue to last-completion,

then reduces repetitions to median +- std exactly as the paper does.
The paper uses N = 16 64 B accesses ("frequent host-device transfers of
small amounts of data") and >=1 K repetitions; repetitions here default
lower for CI speed but are configurable.

Both phases of the D2H, emulated-D2H, D2D and H2D scenarios (Type-2
in every DMC state, and Type-3) replay through the exact-replay trains
of :mod:`repro.core.fastpath` when eligible: the bandwidth phase as one
pipelined train, the latency phase as one *serial* train, bit-exact to
the per-line ``run_process`` loop.  A train starts from a quiescent
simulator.  A DMC prime fills the DMC in one batched call and returns
its dirty victims; the phase's train posts their writebacks before its
own lines, and a phase that runs per-line spawns them first, as the
line-by-line fill did.  The after-NC-P scenarios have no train family,
and true D2H CO-wr none either (its MODIFIED HMC fills can evict dirty
lines, whose writebacks take the CXL wires): both run per-line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from repro.core import fastpath
from repro.core.platform import Platform
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.errors import WorkloadError
from repro.mem.coherence import LineState
from repro.sim.stats import Summary, bandwidth_gbps, summarize

DEFAULT_ACCESSES = 16
DEFAULT_REPS = 40


@dataclass(frozen=True)
class Measurement:
    """One scenario's reduced result."""

    label: str
    latency: Summary          # per-access latency (ns)
    bandwidth: Summary        # achieved bandwidth (GB/s)


OpFactory = Callable[[int], Generator[Any, Any, float]]
# ``prepare(addrs)`` primes the caches and returns the dirty DMC
# victims whose writebacks the phase owes.
PrepareFn = Callable[[list[int]], Sequence[int]]
# Optional bulk fast-forward: ``bulk(addrs)`` returns a train bit-exact
# to the pipelined run, ``bulk(addrs, serial=True)`` one bit-exact to
# the dependent-access loop, or None (per-line fallback).  A scenario
# whose prepare() can return victims takes them as ``writebacks=``.
BulkFn = Callable[..., Optional[Generator[Any, Any, list[float]]]]


class Microbench:
    """Latency/bandwidth characterization against one platform.

    ``pattern`` selects the address stream: the paper measures random
    accesses but notes sequential and random "present similar latency
    and bandwidth trends" (SV, Methodology) — both are supported so the
    claim itself is testable.
    """

    def __init__(self, platform: Platform, reps: int = DEFAULT_REPS,
                 accesses: int = DEFAULT_ACCESSES, pattern: str = "random"):
        if reps < 1 or accesses < 1:
            raise WorkloadError("reps and accesses must be positive")
        if pattern not in ("random", "sequential"):
            raise WorkloadError(f"unknown access pattern {pattern!r}")
        self.p = platform
        self.reps = reps
        self.accesses = accesses
        self.pattern = pattern

    def _ordered(self, addrs: list[int]) -> list[int]:
        """Apply the configured access pattern to fresh line addresses
        (allocators hand them out sequentially)."""
        if self.pattern == "random":
            addrs = list(addrs)
            self.p.rng.shuffle(addrs)
        return addrs

    # ------------------------------------------------------------------
    # generic measurement core
    # ------------------------------------------------------------------

    def _train(self, bulk: Optional[BulkFn], addrs: list[int],
                victims: Sequence[int], serial: bool = False) -> Optional[
                    Generator[Any, Any, list[float]]]:
        """The phase's train, or None: then the phase runs per-line and
        the victims' writebacks are spawned first, at this instant."""
        train = None
        if bulk is not None:
            if victims:
                train = bulk(addrs, serial=serial, writebacks=victims)
            else:
                train = bulk(addrs, serial=serial)
        if train is None:
            self.p.t2.dcoh.write_back(victims)
        return train

    def _measure(self, label: str, make_op: OpFactory, prepare: PrepareFn,
                 fresh: Callable[[int], list[int]],
                 accesses: Optional[int] = None,
                 bulk: Optional[BulkFn] = None) -> Measurement:
        n = accesses or self.accesses
        sim = self.p.sim
        latencies: list[float] = []
        bandwidths: list[float] = []
        for __ in range(self.reps):
            # Latency: dependent accesses, one at a time.
            addrs = self._ordered(fresh(n))
            train = self._train(bulk, addrs, prepare(addrs), serial=True)
            if train is not None:
                latencies += sim.run_process(train)
            else:
                for addr in addrs:
                    latencies.append(sim.run_process(make_op(addr)))
            # Bandwidth: the same scenario, pipelined.  Elapsed time is
            # first-issue to last *completion of the measured accesses* --
            # background work (write-queue drains, victim writebacks)
            # continues after the clock stops, as on real hardware.
            addrs = self._ordered(fresh(n))
            victims = prepare(addrs)
            start = sim.now
            done_at: list[float] = []

            def timed(addr: int) -> Generator[Any, Any, None]:
                yield from make_op(addr)
                done_at.append(sim.now)

            quiet = bulk is not None and fastpath.quiescent(self.p)
            train = self._train(bulk if quiet else None, addrs, victims)
            if train is not None:
                done_at = sim.run_process(train)
            else:
                procs = [sim.spawn(timed(addr)) for addr in addrs]
                sim.run()
                if not all(proc.finished for proc in procs):
                    raise WorkloadError(f"{label}: pipelined run deadlocked")
            bandwidths.append(bandwidth_gbps(n * 64, max(done_at) - start))
        return Measurement(label, summarize(latencies), summarize(bandwidths))

    # ------------------------------------------------------------------
    # D2H: true (CXL Type-2 LSU) vs emulated (remote core over UPI)
    # ------------------------------------------------------------------

    def d2h(self, op: D2HOp, llc_hit: bool) -> Measurement:
        """True D2H accesses from the device LSU (Fig 3, solid bars)."""
        lsu = self.p.t2.lsu
        return self._measure(
            f"d2h/{op.value}/llc-{int(llc_hit)}",
            lambda addr: lsu.d2h(op, addr),
            partial(self._prime_llc, llc_hit=llc_hit), self.p.fresh_host_lines,
            bulk=partial(fastpath.try_lsu_train, self.p, lsu, op),
        )

    def emulated_d2h(self, op: HostOp, llc_hit: bool) -> Measurement:
        """Emulated D2H: remote-socket core over UPI (Fig 3, hatched)."""
        core, home, upi = self.p.core, self.p.home, self.p.upi
        return self._measure(
            f"emul/{op.value}/llc-{int(llc_hit)}",
            lambda addr: core.remote_op(op, addr, home, upi),
            partial(self._prime_llc, llc_hit=llc_hit), self.p.fresh_host_lines,
            bulk=partial(fastpath.try_remote_train, self.p, core, op),
        )

    def _prime_llc(self, addrs: Iterable[int],
                   llc_hit: bool) -> Sequence[int]:
        """The paper's CLDEMOTE methodology: for hits, confine the lines
        to the LLC in SHARED; for misses fresh lines are already absent.
        No DMC victims are owed."""
        if llc_hit:
            for addr in addrs:
                self.p.home.preload_llc(addr, LineState.SHARED)
        return ()

    # ------------------------------------------------------------------
    # D2D: host-bias vs device-bias (Fig 4)
    # ------------------------------------------------------------------

    def d2d(self, op: D2HOp, bias: BiasMode, dmc_hit: bool,
            accesses: Optional[int] = None) -> Measurement:
        """D2D accesses from the LSU under a bias mode (Fig 4)."""
        t2 = self.p.t2
        if bias is BiasMode.DEVICE:
            t2.bias._mode["devmem"] = BiasMode.DEVICE
        else:
            t2.bias._mode["devmem"] = BiasMode.HOST

        def prepare(addrs: list[int]) -> Sequence[int]:
            if dmc_hit:
                return t2.dcoh.prime_dmc(addrs, LineState.SHARED)
            return ()

        return self._measure(
            f"d2d/{op.value}/{bias.value}/dmc-{int(dmc_hit)}",
            lambda addr: t2.lsu.d2d(op, addr),
            prepare, self.p.fresh_dev_lines, accesses=accesses,
            bulk=partial(fastpath.try_lsu_d2d_train, self.p, t2.lsu, op),
        )

    # ------------------------------------------------------------------
    # H2D: host core to Type-2 / Type-3 device memory (Fig 5)
    # ------------------------------------------------------------------

    def h2d(self, op: HostOp, device: str = "t2",
            dmc_state: Optional[LineState] = None) -> Measurement:
        """H2D accesses; ``dmc_state`` primes DMC lines for the Type-2
        hit scenarios (None = DMC miss; Type-3 has no DMC)."""
        if device == "t2":
            target = self.p.t2
        elif device == "t3":
            target = self.p.t3
        else:
            raise WorkloadError(f"unknown H2D device {device!r}")
        if device == "t3" and dmc_state is not None:
            raise WorkloadError("Type-3 device has no DMC to hit")
        core = self.p.core

        def prepare(addrs: list[int]) -> Sequence[int]:
            if dmc_state is not None:
                return self.p.t2.dcoh.prime_dmc(addrs, dmc_state)
            return ()

        state = dmc_state.value if dmc_state else "miss"
        return self._measure(
            f"h2d/{device}/{op.value}/dmc-{state}",
            lambda addr: core.cxl_op(op, addr, target),
            prepare, self.p.fresh_dev_lines,
            bulk=partial(fastpath.try_h2d_train, self.p, core, op, target),
        )

    def h2d_after_ncp(self, op: HostOp) -> Measurement:
        """H2D accesses to words the device pre-pushed into host LLC with
        NC-P (Fig 5, lighter DMC-0 bars; Insight 4)."""
        core, home = self.p.core, self.p.home

        def prepare(addrs: list[int]) -> Sequence[int]:
            # The NC-P itself leaves the line MODIFIED in the LLC.
            for addr in addrs:
                home.preload_llc(addr, LineState.MODIFIED)
            return ()

        if op.is_read:
            make = lambda addr: core.llc_load(addr, home)
        else:
            make = lambda addr: core.llc_store(addr, home)
        return self._measure(
            f"h2d/ncp/{op.value}", make, prepare, self.p.fresh_host_lines,
        )
