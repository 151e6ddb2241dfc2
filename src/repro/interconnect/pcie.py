"""PCIe port: MMIO semantics and bulk TLP streaming.

Two properties make PCIe expensive for fine-grained transfers (SII-A):

* an uncacheable MMIO read is a full ~1 us round trip and a core keeps
  only one outstanding;
* MMIO writes post in one direction but PCIe's strict ordering permits a
  single in-flight write — modelled by holding the ordering slot for the
  entire one-way flight, not just serialization.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import flags
from repro.config import PcieDeviceConfig
from repro.interconnect.link import Direction, Link
from repro.sim.bulk import BULK_STATS
from repro.sim.engine import Simulator, Timeout, WakeAt
from repro.sim.resources import Resource
from repro.units import CACHELINE


class PciePort:
    """A PCIe endpoint (FPGA BARs + DMA engine)."""

    def __init__(self, sim: Simulator, cfg: PcieDeviceConfig):
        self.sim = sim
        self.cfg = cfg
        self.link = Link(sim, cfg.link)
        # Strict write ordering: one MMIO/WC write in flight at a time.
        self._write_order = Resource(sim, 1, "pcie.wr-order")
        # The DMA engine moves one transfer at a time.
        self._dma_engine = Resource(sim, 1, "pcie.dma")

    # -- MMIO ---------------------------------------------------------------

    def mmio_read(self, nbytes: int = CACHELINE) -> Generator[Any, Any, None]:
        """Uncacheable read: full round trip per <=64 B beat, serialized.

        A 256 B read is four dependent round trips -> the >4 us the paper
        reports.
        """
        beats = max(1, (nbytes + CACHELINE - 1) // CACHELINE)
        if beats >= 2 and flags.sample("bulk"):
            # The beats are process-local dependent Timeouts, so the
            # chain is one repeated addition regardless of concurrency.
            end = self.sim.now
            for __ in range(beats):
                end += self.cfg.mmio_read_rt_ns
            BULK_STATS.batch("pcie/mmio-rd", beats)
            yield WakeAt(end)
            return
        for __ in range(beats):
            yield Timeout(self.cfg.mmio_read_rt_ns)

    def mmio_write(self, nbytes: int = CACHELINE) -> Generator[Any, Any, None]:
        """Write-combining write: 64 B beats, one in flight (ordering).

        Alone, a writer's beats chain: each takes the ordering slot as
        the previous one frees it, so the last ends at
        ``now + d + d + ...``.  On a quiescent simulator with the slot
        idle, nothing can join before that float, and the beats are one
        ``WakeAt``.  Anywhere else concurrent writers interleave on the
        FIFO slot per beat.
        """
        beats = max(1, (nbytes + CACHELINE - 1) // CACHELINE)
        order = self._write_order
        if (beats >= 2 and self.sim.quiescent and not order._in_use
                and flags.sample("bulk")):
            end = self.sim.now
            for __ in range(beats):
                end += self.cfg.mmio_write_oneway_ns
            BULK_STATS.batch("pcie/mmio-wr", beats)
            yield WakeAt(end)
            return
        for __ in range(beats):  # reprolint: disable=PERF402 ordering FIFO
            yield from order.using(self.cfg.mmio_write_oneway_ns)

    # -- DMA ------------------------------------------------------------------

    def dma(self, nbytes: int,
            to_device: bool = True) -> Generator[Any, Any, None]:
        """One DMA transfer: setup + streaming + completion notice.

        Setup cost is paid per transfer regardless of size — the reason
        DMA loses to MMIO/CXL for small messages.
        """
        yield Timeout(self.cfg.dma_setup_ns)
        yield self._dma_engine.acquire()
        try:
            direction = Direction.TO_DEVICE if to_device else Direction.TO_HOST
            rate = min(self.cfg.dma_bytes_per_ns, self.cfg.link.bytes_per_ns)
            yield from self.link.send(direction, 0)  # descriptor fetch beat
            yield Timeout(nbytes / rate)
            yield from self.link.send(
                Direction.TO_HOST if to_device else Direction.TO_DEVICE, 0)
        finally:
            self._dma_engine.release()
        yield Timeout(self.cfg.dma_completion_ns)
