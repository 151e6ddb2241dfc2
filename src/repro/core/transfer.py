"""Bulk host<->device transfer paths for the Fig-6 efficiency comparison.

Six mechanisms move ``n`` bytes between host memory and device memory:

========================  =============================================
mechanism                 model
========================  =============================================
``pcie-mmio``             uncacheable ld/st beats over PCIe (ordered)
``pcie-dma``              descriptor DMA on the Agilex-7 PCIe IP
``pcie-rdma``             one-sided RDMA via BF-3 (x32 lanes)
``pcie-doca-dma``         the same engine behind the DOCA stack
``cxl-ldst``              the host core's ld/st (H2D) or the device
                          LSU's CS-rd/NC-P (D2H) at cache-line grain
``cxl-dsa``               DSA descriptor DMA into CXL memory
========================  =============================================

Latency is one whole transfer; bandwidth is the back-to-back streaming
rate.  The CXL ld/st paths reuse the exact per-line machinery of the
microbenchmark, so Fig 6's crossovers (CPU LD/ST queues beyond ~1 KB,
DMA setup amortization, RDMA's x32 edge) all emerge from shared models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.core import fastpath
from repro.core.platform import Platform
from repro.core.requests import D2HOp, HostOp
from repro.errors import WorkloadError
from repro.sim.stats import Summary, bandwidth_gbps, summarize
from repro.units import CACHELINE

H2D_MECHANISMS = ("pcie-mmio", "pcie-dma", "pcie-rdma", "pcie-doca-dma",
                  "cxl-ldst", "cxl-dsa")
D2H_MECHANISMS = ("pcie-mmio", "pcie-rdma", "pcie-doca-dma", "cxl-ldst",
                  "cxl-dsa")


@dataclass(frozen=True)
class TransferResult:
    mechanism: str
    direction: str            # "h2d" | "d2h"
    size_bytes: int
    latency: Summary          # ns for one whole transfer
    bandwidth: Summary        # GB/s streaming


class TransferBench:
    """Fig-6 harness: sweep mechanisms x sizes on one platform."""

    def __init__(self, platform: Platform, reps: int = 15):
        if reps < 1:
            raise WorkloadError("reps must be positive")
        self.p = platform
        self.reps = reps

    # ------------------------------------------------------------------
    # whole-transfer generators
    # ------------------------------------------------------------------

    def _h2d_once(self, mechanism: str, nbytes: int) -> Generator[Any, Any, None]:
        p = self.p
        if mechanism == "pcie-mmio":
            yield from p.pcie.mmio_write(nbytes)
        elif mechanism == "pcie-dma":
            yield from p.pcie.dma_to_device(nbytes)
        elif mechanism == "pcie-rdma":
            yield from p.snic.rdma_transfer(nbytes, to_device=True)
        elif mechanism == "pcie-doca-dma":
            yield from p.snic.doca_dma(nbytes, to_device=True)
        elif mechanism == "cxl-ldst":
            yield from self._cxl_ldst("h2d", nbytes)
        elif mechanism == "cxl-dsa":
            yield from p.dsa.copy(nbytes, via=p.t2.port.link, to_device=True)
        else:
            raise WorkloadError(f"unknown H2D mechanism {mechanism!r}")

    def _d2h_once(self, mechanism: str, nbytes: int) -> Generator[Any, Any, None]:
        p = self.p
        if mechanism == "pcie-mmio":
            # BF-3 Arm core reads host memory through MMIO windows.
            yield from p.pcie.mmio_read(nbytes)
        elif mechanism == "pcie-rdma":
            yield from p.snic.rdma_transfer(nbytes, to_device=False)
        elif mechanism == "pcie-doca-dma":
            yield from p.snic.doca_dma(nbytes, to_device=False)
        elif mechanism == "cxl-ldst":
            yield from self._cxl_ldst("d2h", nbytes)
        elif mechanism == "cxl-dsa":
            yield from p.dsa.copy(nbytes, via=p.t2.port.link, to_device=False)
        else:
            raise WorkloadError(f"unknown D2H mechanism {mechanism!r}")

    def _cxl_ldst(self, direction: str, nbytes: int,
                  transfers: int = 1) -> Generator[Any, Any, None]:
        """``transfers`` transfers of ``nbytes`` as one stream of cache
        lines over CXL, pipelined: the host core's nt-st into device
        memory (h2d), or the device LSU's CS-rd of host memory (d2h; SV-D
        pairs CXL-LD with CS-read and CXL-ST with NC-P)."""
        p = self.p
        sim, core, t2 = p.sim, p.core, p.t2
        lines = transfers * max(1, nbytes // CACHELINE)
        if direction == "h2d":
            addrs = p.fresh_dev_lines(lines)
            train = fastpath.try_h2d_train(p, core, HostOp.NT_STORE, t2,
                                           addrs)
            line = lambda a: core.cxl_op(HostOp.NT_STORE, a, t2)
        else:
            addrs = p.fresh_host_lines(lines)
            train = fastpath.try_lsu_train(p, t2.lsu, D2HOp.CS_READ, addrs)
            line = lambda a: t2.lsu.d2h(D2HOp.CS_READ, a)
        if train is not None:
            yield from train
            return
        procs = [sim.spawn(line(addr)) for addr in addrs]
        yield sim.all_of([proc.done for proc in procs])

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure(self, mechanism: str, direction: str,
                nbytes: int) -> TransferResult:
        """Latency (one transfer) and streaming bandwidth (pipelined)."""
        if direction == "h2d":
            once: Callable[[], Generator] = lambda: self._h2d_once(mechanism, nbytes)
            if mechanism not in H2D_MECHANISMS:
                raise WorkloadError(f"{mechanism} is not an H2D mechanism")
        elif direction == "d2h":
            once = lambda: self._d2h_once(mechanism, nbytes)
            if mechanism not in D2H_MECHANISMS:
                raise WorkloadError(f"{mechanism} is not a D2H mechanism")
        else:
            raise WorkloadError(f"direction must be h2d|d2h, not {direction!r}")

        sim = self.p.sim
        latencies = []

        def timed_once() -> Generator[Any, Any, float]:
            t0 = sim.now
            yield from once()
            # Read the clock *inside* the process: posted paths spawn
            # background device work that run_process also drains.
            return sim.now - t0

        for __ in range(self.reps):
            raw = sim.run_process(timed_once())
            latencies.append(self.p.rng.jitter(raw, self.p.cfg.latency_noise))
        # Streaming bandwidth: several transfers in flight back-to-back.
        # The cxl-ldst transfers' lines are one stream: the bump
        # allocators hand ``depth`` transfers the addresses of one call,
        # and their line processes start in the same order.  The h2d
        # pcie-mmio writers are one stream of their beats: they take the
        # ordering slot in turn, so the last beat ends where one writer's
        # chained beats would.
        depth = 4
        if mechanism == "cxl-ldst":
            streams = [lambda: self._cxl_ldst(direction, nbytes, depth)]
        elif mechanism == "pcie-mmio" and direction == "h2d":
            beats = max(1, (nbytes + CACHELINE - 1) // CACHELINE)
            streams = [lambda: self.p.pcie.mmio_write(
                depth * beats * CACHELINE)]
        else:
            streams = [once] * depth
        start = sim.now
        done_at: list[float] = []

        def timed(stream: Callable[[], Generator]) -> Generator[Any, Any,
                                                                None]:
            yield from stream()
            done_at.append(sim.now)

        procs = [sim.spawn(timed(stream)) for stream in streams]
        sim.run()
        if not all(proc.finished for proc in procs):
            raise WorkloadError(f"{mechanism}/{direction}: deadlock")
        bw = bandwidth_gbps(depth * nbytes, max(done_at) - start)
        bws = [self.p.rng.jitter(bw, self.p.cfg.latency_noise)
               for __ in range(self.reps)]
        return TransferResult(mechanism, direction, nbytes,
                              summarize(latencies), summarize(bws))
