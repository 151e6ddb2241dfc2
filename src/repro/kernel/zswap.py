"""zswap: the compressed RAM cache for swap (SVI-A).

The pool (*zpool*) holds compressed pages.  Its placement is the
paper's point: ``cpu`` / ``pcie-*`` backends keep the zpool in **host
DRAM** (PCIe devices cannot expose their memory), while ``cxl`` places
it in **device memory**, simultaneously freeing host DRAM and using the
Type-2 device's capacity-expansion capability.

Flow per SVI-A:

* ``store`` — compress (via the configured transport) and insert; when
  the pool exceeds ``max_pool_percent`` of managed memory, evict LRU
  entries to the backing swap device (decompress + write);
* ``load`` — pool hit: decompress and return; pool miss: SSD read.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.offload import OffloadEngine, OffloadReport
from repro.errors import FaultError, KernelError
from repro.faults import HealthState
from repro.kernel.pagestore import PAGE_STORE
from repro.kernel.swapdev import SwapDevice
from repro.resilience import NO_RESILIENCE
from repro.units import PAGE_SIZE


def _same_fill_byte(data: Optional[bytes]) -> Optional[int]:
    """The fill byte if every byte of the page is identical, else None."""
    if data is None or not data:
        return None
    first = data[0]
    return first if data.count(first) == len(data) else None


# Host-side cost of the same-filled scan (a word-equality sweep of the
# page, done before compression is attempted -- a real zswap fast path).
SAME_FILLED_SCAN_NS = 300.0
SAME_FILLED_ENTRY_BYTES = 8            # the fill value, not a blob
# Pages whose compressed form exceeds this fraction of PAGE_SIZE are
# *rejected* from the pool (Linux zswap's behaviour for incompressible
# data) and written straight to the backing swap device.
REJECT_THRESHOLD = 0.9


@dataclass
class ZpoolEntry:
    """One compressed page parked in the zpool."""

    handle: int
    compressed_bytes: int
    blob: Optional[bytes] = None       # functional payload
    same_filled: Optional[int] = None  # fill byte for same-filled pages


@dataclass
class ZswapStats:
    stores: int = 0
    loads: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    writebacks: int = 0
    rejected: int = 0
    same_filled: int = 0
    fallbacks: int = 0       # operations served by the fallback transport
    host_cpu_ns: float = 0.0


class Zswap:
    """The compressed swap cache."""

    def __init__(self, engine: OffloadEngine, swapdev: SwapDevice,
                 transport: str, managed_pages: int,
                 max_pool_percent: int = 20,
                 fallback_transport: str = "cpu",
                 policy: Any = NO_RESILIENCE):
        if not (0 < max_pool_percent < 100):
            raise KernelError(f"bad max_pool_percent {max_pool_percent}")
        self.engine = engine
        self.swapdev = swapdev
        self.transport = transport
        self.fallback_transport = fallback_transport
        self.policy = policy
        self.managed_pages = managed_pages
        self.max_pool_percent = max_pool_percent
        self.zpool_in_device_memory = transport == "cxl"
        self._pool: "OrderedDict[int, ZpoolEntry]" = OrderedDict()
        self._swapped: dict[int, int] = {}        # handle -> swap slot
        self._pool_bytes = 0
        self._next_handle = 1
        # Functional blobs dedupe through the content store: workloads
        # re-store the same pages, so equal compressed outputs share one
        # buffer.  Every blob in the pool holds one reference.
        self._pstore = PAGE_STORE
        self.stats = ZswapStats()

    # -- accounting ---------------------------------------------------------

    @property
    def pool_bytes(self) -> int:
        return self._pool_bytes

    @property
    def pool_limit_bytes(self) -> int:
        return self.managed_pages * PAGE_SIZE * self.max_pool_percent // 100

    @property
    def host_dram_pool_bytes(self) -> int:
        """Host DRAM consumed by the pool — zero for cxl-zswap, whose
        zpool lives in device memory (SVI-A)."""
        return 0 if self.zpool_in_device_memory else self._pool_bytes

    def is_full(self) -> bool:
        return self._pool_bytes >= self.pool_limit_bytes

    # -- graceful degradation ----------------------------------------------

    def _transport_now(self) -> str:
        """The transport for the next operation: the configured one,
        unless the offload device is FAILED — then reroute to the
        fallback without even attempting (mirrors Linux zswap rejecting
        to swap when the compressor backend errors).  With an armed
        health monitor a FAILED device still gets its due probe: the
        configured transport is returned so the engine's half-open
        probe machinery can run the recovery attempt."""
        if (self.transport != self.fallback_transport
                and self.engine.health.state is HealthState.FAILED
                and not self.engine.health.probe_due(self.engine.p.sim.now)):
            self.stats.fallbacks += 1
            return self.fallback_transport
        return self.transport

    def _compress_op(self, data: Optional[bytes]
                     ) -> Generator[Any, Any, OffloadReport]:
        """Compress via the configured transport, falling back to the
        cpu path on a hardware fault (the page is never lost: the
        original data is still in hand).  With an armed resilience
        policy the cxl path routes through the policy's breaker and
        hedge machinery instead."""
        if self.policy.armed and self.transport == "cxl":
            return (yield from self.policy.offload_op("compress", data=data))
        transport = self._transport_now()
        try:
            return (yield from self.engine.compress_page(transport,
                                                         data=data))
        except FaultError:
            if transport == self.fallback_transport:
                raise
            self.stats.fallbacks += 1
            return (yield from self.engine.compress_page(
                self.fallback_transport, data=data))

    def _decompress_op(self, blob: Optional[bytes], stored_bytes: int
                       ) -> Generator[Any, Any, OffloadReport]:
        """Decompress via the configured transport with cpu fallback.
        Safe to redo: the compressed blob stays in the pool entry until
        the operation returns."""
        if self.policy.armed and self.transport == "cxl":
            return (yield from self.policy.offload_op(
                "decompress", data=blob, stored_bytes=stored_bytes))
        transport = self._transport_now()
        try:
            return (yield from self.engine.decompress_page(
                transport, data=blob, stored_bytes=stored_bytes))
        except FaultError:
            if transport == self.fallback_transport:
                raise
            self.stats.fallbacks += 1
            return (yield from self.engine.decompress_page(
                self.fallback_transport, data=blob,
                stored_bytes=stored_bytes))

    # -- store (swap-out) ------------------------------------------------------

    def store(self, data: Optional[bytes] = None
              ) -> Generator[Any, Any, tuple[int, Optional[OffloadReport]]]:
        """Compress one page into the pool; returns (handle, report).

        Same-filled pages (all bytes equal -- overwhelmingly the zero
        page) take Linux zswap's fast path: the fill value is stored
        directly, no compression and no offload traffic at all.
        """
        self.stats.stores += 1
        fill = _same_fill_byte(data)
        if fill is not None:
            yield self.engine.p.sim.timeout_event(SAME_FILLED_SCAN_NS)
            self.stats.same_filled += 1
            self.stats.host_cpu_ns += SAME_FILLED_SCAN_NS
            handle = self._next_handle
            self._next_handle += 1
            self._pool[handle] = ZpoolEntry(
                handle, SAME_FILLED_ENTRY_BYTES, same_filled=fill)
            self._pool_bytes += SAME_FILLED_ENTRY_BYTES
            return handle, None
        report = yield from self._compress_op(data)
        self.stats.host_cpu_ns += report.host_cpu_ns
        handle = self._next_handle
        self._next_handle += 1
        if report.output_bytes > PAGE_SIZE * REJECT_THRESHOLD:
            # Incompressible: caching it would waste pool space for no
            # memory saving -- send the original page straight to swap.
            self.stats.rejected += 1
            slot = yield from self.swapdev.write_page(
                data if data is not None else None)
            self._swapped[handle] = slot
            return handle, report
        blob = report.result
        if blob is not None:
            blob = self._pstore.intern(blob)
        self._pool[handle] = ZpoolEntry(handle, report.output_bytes,
                                        blob=blob)
        self._pool_bytes += report.output_bytes
        while self.is_full():
            yield from self._writeback_one()
        return handle, report

    def _writeback_one(self) -> Generator[Any, Any, None]:
        """Evict the LRU entry: decompress, write to the swap device."""
        if not self._pool:
            raise KernelError("writeback on an empty pool")
        handle, entry = self._pool.popitem(last=False)
        self._pool_bytes -= entry.compressed_bytes
        self._release_entry(entry)
        self.stats.writebacks += 1
        if entry.same_filled is not None:
            page = bytes([entry.same_filled]) * PAGE_SIZE
            slot = yield from self.swapdev.write_page(page)
            self._swapped[handle] = slot
            return
        report = yield from self._decompress_op(entry.blob,
                                                entry.compressed_bytes)
        self.stats.host_cpu_ns += report.host_cpu_ns
        slot = yield from self.swapdev.write_page(report.result)
        self._swapped[handle] = slot

    # -- load (swap-in) -----------------------------------------------------------

    def load(self, handle: int
             ) -> Generator[Any, Any, tuple[Optional[bytes], bool]]:
        """Fault one page back in; returns (data, pool_hit)."""
        self.stats.loads += 1
        entry = self._pool.pop(handle, None)
        if entry is not None:
            self._pool_bytes -= entry.compressed_bytes
            self._release_entry(entry)
            self.stats.pool_hits += 1
            if entry.same_filled is not None:
                # Reconstructing a same-filled page is a memset.
                yield self.engine.p.sim.timeout_event(SAME_FILLED_SCAN_NS)
                self.stats.host_cpu_ns += SAME_FILLED_SCAN_NS
                return bytes([entry.same_filled]) * PAGE_SIZE, True
            report = yield from self._decompress_op(entry.blob,
                                                    entry.compressed_bytes)
            self.stats.host_cpu_ns += report.host_cpu_ns
            return report.result, True
        slot = self._swapped.pop(handle, None)
        if slot is None:
            raise KernelError(f"load of unknown zswap handle {handle}")
        self.stats.pool_misses += 1
        data = yield from self.swapdev.read_page(slot)
        return data, False

    def _release_entry(self, entry: ZpoolEntry) -> None:
        """Pair the store-time intern when an entry leaves the pool."""
        if entry.blob is not None:
            self._pstore.release(entry.blob)

    def invalidate(self, handle: int) -> None:
        """Drop an entry whose owner freed the page."""
        entry = self._pool.pop(handle, None)
        if entry is not None:
            self._pool_bytes -= entry.compressed_bytes
            self._release_entry(entry)
            return
        slot = self._swapped.pop(handle, None)
        if slot is None:
            raise KernelError(f"invalidate of unknown handle {handle}")
        self.swapdev.discard(slot)
