"""The offload engine: zswap/ksm data-plane functions on four transports.

Transports (SVI-SVII):

``cpu``
    the host core runs the function itself (the deployed-today baseline);
``cxl``
    the Fig-7 flow — doorbell submit (nt-st), device CS-read poll, D2H
    NC-read pull *pipelined* with the streaming IP, D2D NC-write into the
    device-memory zpool / D2H NC-P of results, completion via shared
    memory.  Host CPU cost: a few posted stores and one load;
``pcie-dma``
    descriptor DMA on the Agilex-7 PCIe IP; the same FPGA compute IPs,
    but transfer and compute cannot pipeline (data must land in device
    memory first) and the zpool stays in *host* memory, costing an extra
    return DMA;
``pcie-rdma``
    STYX-style BF-3 offload: host-side verbs, RDMA reads/writes, Arm-core
    software compute, MSI-X completion — every step charges host cycles.

Each operation returns an :class:`OffloadReport` carrying the Table-IV
step breakdown, the wall-clock total, and — crucially for Fig 8 — how
much *host CPU time* the operation consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core import fastpath
from repro.core.doorbell import Command, Completion, Doorbell
from repro.core.platform import Platform
from repro.core.requests import D2HOp
from repro.devices.accel_ip import (
    ByteCompareIp,
    CompressionIp,
    DecompressionIp,
    XxhashIp,
)
from repro.errors import FaultError, OffloadError
from repro.faults import DeviceHealthMonitor, HealthState
from repro.units import CACHELINE, PAGE_SIZE

TRANSPORTS = ("cpu", "cxl", "pcie-dma", "pcie-rdma")

# Robustness defaults: a CXL offload command completes in single-digit us
# (Table IV), so 50 us of silence means the device hung or the completion
# was lost.  Retries back off exponentially from 5 us.
COMMAND_TIMEOUT_NS = 50_000.0
RETRY_BACKOFF_NS = 5_000.0
MAX_RETRIES = 3

# Host-core software rates (bytes/ns).  The FPGA compression IP is
# 1.8-2.8x faster than the host CPU for a 4 KB page (SVI-A): the IP does
# ~1.55 B/ns, so the host does ~0.62.  Decompression is cheaper.
HOST_COMPRESS_RATE = 0.62
HOST_DECOMPRESS_RATE = 1.6
HOST_HASH_RATE = 2.2
HOST_MEMCMP_RATE = 2.6
# Kernel software-stack cost charged per host-side RDMA operation (verbs,
# page pinning, WQE bookkeeping) -- the ~1,300-LoC path of SVII.
RDMA_HOST_STACK_NS = 1400.0
# Host-side cost of fielding the device's completion on the PCIe paths
# (interrupt entry/exit or a polling slot).
PCIE_COMPLETION_HOST_NS = 900.0
# Host-side cost of programming one DMA descriptor (MMIO doorbell etc.).
# The PCIe-DMA software stack is less efficient than the RDMA verbs path
# (SVII), so its per-descriptor host cost is higher.
DMA_HOST_SETUP_NS = 800.0


@dataclass(frozen=True)
class OffloadReport:
    """Timing and accounting for one offloaded operation."""

    transport: str
    op: str
    input_bytes: int
    output_bytes: int
    transfer_ns: float      # step 2: moving input to the compute engine
    compute_ns: float       # step 4: the data-plane function itself
    writeback_ns: float     # step 5: moving results where they belong
    total_ns: float         # wall clock; < sum of steps when pipelined
    host_cpu_ns: float      # host core time consumed (the Fig-8 channel)
    result: Any = None

    @property
    def pipelined(self) -> bool:
        steps = self.transfer_ns + self.compute_ns + self.writeback_ns
        return self.total_ns < 0.98 * steps


class OffloadEngine:
    """Runs zswap/ksm data-plane functions over a chosen transport."""

    def __init__(self, platform: Platform, functional: bool = False):
        self.p = platform
        self.functional = functional
        self.doorbell = Doorbell(platform)
        sim = platform.sim
        self.compressor = CompressionIp(sim)
        self.decompressor = DecompressionIp(sim)
        self.hasher = XxhashIp(sim)
        self.comparator = ByteCompareIp(sim)
        self.reports: list[OffloadReport] = []
        # Robustness: per-device health, per-command timeout, bounded
        # retry with exponential backoff.  None of it is consulted while
        # the platform has no FaultPlan armed and the device is healthy.
        self.health = DeviceHealthMonitor()
        self.command_timeout_ns = COMMAND_TIMEOUT_NS
        self.retry_backoff_ns = RETRY_BACKOFF_NS
        self.max_retries = MAX_RETRIES
        self.timeouts = 0
        self.retries = 0
        self.fault_errors = 0

    @property
    def faults(self):
        return self.p.faults

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_transport(self, transport: str) -> None:
        if transport not in TRANSPORTS:
            raise OffloadError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )

    def _offload_cxl(self, op_name: str, handler: Any,
                     *args: Any) -> Generator[Any, Any, OffloadReport]:
        """Dispatch one cxl-transport operation.

        The fast path — no fault plan armed, device healthy — calls the
        handler directly with zero added cost.  Otherwise the attempt
        runs under the timeout / bounded-retry / health machinery."""
        if not self.faults.active and self.health.state is HealthState.HEALTHY:
            return (yield from handler(*args))
        return (yield from self._with_retry(op_name, handler, args))

    def _with_retry(self, op_name: str, handler: Any,
                    args: tuple) -> Generator[Any, Any, OffloadReport]:
        """Bounded retry with exponential backoff around one cxl attempt.

        Every :class:`FaultError` (link down, poison, viral rejection,
        completion timeout) is recorded against device health; a FAILED
        device fast-fails so callers can fall back without waiting —
        unless a recovery probe is due, in which case this attempt *is*
        the probe (HALF_OPEN) and its outcome re-admits or re-fails the
        device."""
        now = self.p.sim.now
        if self.health.state is HealthState.FAILED:
            if not self.health.probe_due(now):
                raise FaultError(
                    f"device is FAILED: {op_name!r} offload not attempted")
            self.health.begin_probe(now)
        attempt = 0
        while True:
            try:
                report = yield from self._attempt(op_name, handler, args)
            except FaultError:
                self.fault_errors += 1
                self.health.record_failure(self.p.sim.now)
                if (self.health.state is HealthState.FAILED
                        or attempt >= self.max_retries):
                    raise
                attempt += 1
                self.retries += 1
                backoff = self.retry_backoff_ns * (2 ** (attempt - 1))
                yield self.p.sim.timeout_event(backoff)
            else:
                self.health.record_success(self.p.sim.now)
                return report

    def _attempt(self, op_name: str, handler: Any,
                 args: tuple) -> Generator[Any, Any, OffloadReport]:
        """One guarded attempt.  A hung device (``device_hang`` flag) or a
        dropped completion (``offload_drop`` rate) means the command goes
        out but no completion ever arrives: the host pays the submit,
        waits out the command timeout, and reaps the orphaned tag."""
        faults = self.faults
        if faults.active and (faults.flag("device_hang")
                              or faults.take("offload_drop")):
            tag = yield from self.doorbell.submit(Command(op_name))
            self.timeouts += 1
            yield from self.doorbell.await_completion(
                tag, self.command_timeout_ns)
            raise OffloadError(
                "unreachable: await_completion must have timed out")
        return (yield from handler(*args))

    def _compressed_size(self, data: Optional[bytes], nbytes: int) -> tuple[int, Any]:
        """Real compression in functional mode; a deterministic ratio
        model otherwise (timing must not depend on payload)."""
        if self.functional and data is not None:
            blob = CompressionIp.run(data)
            return len(blob), blob
        ratio = 0.30 + 0.4 * self.p.rng.random()   # 2.0x avg, like lz4 text
        return max(128, int(nbytes * ratio)), None

    def _lsu_burst(self, op: D2HOp, addrs: list[int],
                   d2d: bool) -> Generator[Any, Any, float]:
        """Pipelined burst of LSU requests; returns elapsed ns."""
        sim, lsu = self.p.sim, self.p.t2.lsu
        start = sim.now
        train = (fastpath.try_lsu_d2d_train(self.p, lsu, op, addrs) if d2d
                 else fastpath.try_lsu_train(self.p, lsu, op, addrs))
        if train is not None:
            yield from train
            return sim.now - start
        procs = [sim.spawn(lsu.d2d(op, a) if d2d else lsu.d2h(op, a))
                 for a in addrs]
        yield sim.all_of([proc.done for proc in procs])
        return sim.now - start

    def _lines(self, nbytes: int, host: bool) -> list[int]:
        count = max(1, (nbytes + CACHELINE - 1) // CACHELINE)
        return (self.p.fresh_host_lines(count) if host
                else self.p.fresh_dev_lines(count))

    def _record(self, report: OffloadReport) -> OffloadReport:
        self.reports.append(report)
        return report

    # Streaming-head estimates for the pipelined cxl flows: the IP starts
    # once the first line lands; lines then arrive at the LSU's pipelined
    # rate (initiation interval ~ latency / outstanding window).
    def _d2h_head_latency_ns(self) -> float:
        cfg = self.p.cfg
        return (cfg.cxl_t2.dcoh.engine_ns + 2 * cfg.cxl_t2.link.propagation_ns
                + cfg.cxl_t2.host_agent_ns + cfg.host.llc_ns
                + cfg.host.dram.read_ns + cfg.cxl_t2.host_agent_miss_extra_ns)

    def _d2h_pull_rate(self) -> float:
        cfg = self.p.cfg
        ii = max(cfg.cxl_t2.lsu_issue_ns,
                 self._d2h_head_latency_ns() / cfg.cxl_t2.lsu_outstanding)
        return CACHELINE / ii

    def _d2d_head_latency_ns(self) -> float:
        cfg = self.p.cfg
        return (cfg.cxl_t2.dcoh.engine_ns + cfg.cxl_t2.dram.read_ns
                + 2 * cfg.cxl_t2.dcoh.lookup_ns)

    def _d2d_pull_rate(self) -> float:
        cfg = self.p.cfg
        ii = max(cfg.cxl_t2.lsu_issue_ns,
                 self._d2d_head_latency_ns() / cfg.cxl_t2.lsu_outstanding)
        return CACHELINE / ii

    # ------------------------------------------------------------------
    # compression (zswap swap-out, Fig 7 left)
    # ------------------------------------------------------------------

    def compress_page(self, transport: str, data: Optional[bytes] = None,
                      nbytes: int = PAGE_SIZE) -> Generator[Any, Any, OffloadReport]:
        """Compress one page and park it in the zpool (timed process)."""
        self._check_transport(transport)
        out_bytes, blob = self._compressed_size(data, nbytes)
        if transport == "cxl":
            report = yield from self._offload_cxl(
                "compress", self._compress_cxl, nbytes, out_bytes, blob)
        else:
            handler = {
                "cpu": self._compress_cpu,
                "pcie-dma": self._compress_pcie_dma,
                "pcie-rdma": self._compress_pcie_rdma,
            }[transport]
            report = yield from handler(nbytes, out_bytes, blob)
        return self._record(report)

    def _compress_cpu(self, nbytes: int, out_bytes: int,
                      blob: Any) -> Generator[Any, Any, OffloadReport]:
        sim = self.p.sim
        start = sim.now
        compute = nbytes / HOST_COMPRESS_RATE
        yield self.p.sim.timeout_event(compute)
        # Store into the host-DRAM zpool (riding the cache hierarchy).
        wb = out_bytes / (self.p.cfg.host.dram.bytes_per_ns * 2)
        yield sim.timeout_event(wb)
        total = sim.now - start
        return OffloadReport("cpu", "compress", nbytes, out_bytes,
                             0.0, compute, wb, total, host_cpu_ns=total,
                             result=blob)

    def _compress_cxl(self, nbytes: int, out_bytes: int,
                      blob: Any) -> Generator[Any, Any, OffloadReport]:
        """Fig-7 flow: submit -> poll -> pull || compress || store -> done."""
        sim = self.p.sim
        start = sim.now

        # Step 1: host nt-sts the command (the only host work besides
        # wake); one device poll sweep notices it.
        cmd, host_cpu = yield from self.doorbell.open(
            Command("compress", nbytes=nbytes))

        # Steps 2+4: D2H NC-read pull feeding the streaming compressor,
        # genuinely overlapped: the IP starts on the head of the stream
        # and runs at the slower of (IP rate, pull rate).  NC-read has the
        # lowest D2H latency for 4 KB (Fig 6) and leaves no HMC/host-cache
        # footprint.
        pull_addrs = self._lines(nbytes, host=True)
        t0 = sim.now
        xfer_proc = sim.spawn(
            self._lsu_burst(D2HOp.NC_READ, pull_addrs, d2d=False))
        head_ns = self._d2h_head_latency_ns()
        pull_rate = self._d2h_pull_rate()
        yield sim.timeout_event(head_ns)
        compute_done = sim.spawn(
            self.compressor.process_streamed(nbytes, pull_rate))
        transfer_ns = yield xfer_proc.done
        yield compute_done.done
        overlap_ns = sim.now - t0          # transfer and compute, overlapped
        compute_ns = self.compressor.duration_ns(nbytes)

        # Step 5: D2D NC-write of the compressed page into the zpool in
        # device memory (pipelined with compute; only the tail remains).
        store_addrs = self._lines(out_bytes, host=False)
        writeback_ns = yield from self._lsu_burst(
            D2HOp.NC_WRITE, store_addrs[:4], d2d=True)
        # Then the host wakes and reads the completion (one H2D ld).
        __, host_ns = yield from self.doorbell.close(
            Completion(cmd.tag, result=out_bytes), push_to_llc=False)
        host_cpu += host_ns

        total = sim.now - start
        return OffloadReport("cxl", "compress", nbytes, out_bytes,
                             overlap_ns - compute_ns
                             if overlap_ns > compute_ns else transfer_ns,
                             compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=blob)

    def _compress_pcie_dma(self, nbytes: int, out_bytes: int,
                           blob: Any) -> Generator[Any, Any, OffloadReport]:
        sim, pcie = self.p.sim, self.p.pcie
        start = sim.now
        host_cpu = DMA_HOST_SETUP_NS
        # Step 2: DMA the page into device memory (host programs it).
        yield sim.timeout_event(DMA_HOST_SETUP_NS)
        t0 = sim.now
        yield from pcie.dma_to_device(nbytes)
        transfer_ns = sim.now - t0
        # Step 4: the same FPGA IP, but the page sat in device DRAM first —
        # no pipelining with the transfer.
        t0 = sim.now
        yield from self.compressor.process(nbytes)
        compute_ns = sim.now - t0
        # Step 5: DMA the compressed page back to the host-DRAM zpool.
        yield sim.timeout_event(DMA_HOST_SETUP_NS)
        host_cpu += DMA_HOST_SETUP_NS
        t0 = sim.now
        yield from pcie.dma_to_host(out_bytes)
        writeback_ns = sim.now - t0
        # Completion: the host fields the DMA-done notification.
        yield sim.timeout_event(PCIE_COMPLETION_HOST_NS)
        host_cpu += PCIE_COMPLETION_HOST_NS
        total = sim.now - start
        return OffloadReport("pcie-dma", "compress", nbytes, out_bytes,
                             transfer_ns, compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=blob)

    def _compress_pcie_rdma(self, nbytes: int, out_bytes: int,
                            blob: Any) -> Generator[Any, Any, OffloadReport]:
        sim, snic = self.p.sim, self.p.snic
        start = sim.now
        host_cpu = RDMA_HOST_STACK_NS
        # Step 2: host posts a verbs WQE; BF-3 RDMA-reads the page.
        yield sim.timeout_event(RDMA_HOST_STACK_NS)
        t0 = sim.now
        yield from snic.rdma_transfer(nbytes, to_device=True)
        transfer_ns = sim.now - t0
        # Step 4: Arm-core software compression.
        t0 = sim.now
        yield from snic.arm_compress(nbytes)
        compute_ns = sim.now - t0
        # Step 5: RDMA-write the compressed page to the host-DRAM zpool
        # (DDIO lands it in LLC), then interrupt the host.
        t0 = sim.now
        yield from snic.rdma_transfer(out_bytes, to_device=False)
        writeback_ns = sim.now - t0
        yield from snic.interrupt_host()
        host_cpu += PCIE_COMPLETION_HOST_NS
        yield sim.timeout_event(PCIE_COMPLETION_HOST_NS)
        total = sim.now - start
        return OffloadReport("pcie-rdma", "compress", nbytes, out_bytes,
                             transfer_ns, compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=blob)

    # ------------------------------------------------------------------
    # decompression (zswap swap-in, Fig 7 right)
    # ------------------------------------------------------------------

    def decompress_page(self, transport: str, data: Optional[bytes] = None,
                        nbytes: int = PAGE_SIZE,
                        stored_bytes: Optional[int] = None,
                        ) -> Generator[Any, Any, OffloadReport]:
        """Restore one page from the zpool (timed process).  ``nbytes`` is
        the decompressed size; ``stored_bytes`` the zpool footprint."""
        self._check_transport(transport)
        in_bytes = stored_bytes or nbytes // 2
        out = DecompressionIp.run(data) if (self.functional and data) else None
        if transport == "cxl":
            report = yield from self._offload_cxl(
                "decompress", self._decompress_cxl, in_bytes, nbytes, out)
        else:
            handler = {
                "cpu": self._decompress_cpu,
                "pcie-dma": self._decompress_pcie_dma,
                "pcie-rdma": self._decompress_pcie_rdma,
            }[transport]
            report = yield from handler(in_bytes, nbytes, out)
        return self._record(report)

    def _decompress_cpu(self, in_bytes: int, out_bytes: int,
                        out: Any) -> Generator[Any, Any, OffloadReport]:
        sim = self.p.sim
        start = sim.now
        compute = out_bytes / HOST_DECOMPRESS_RATE
        yield sim.timeout_event(compute)
        total = sim.now - start
        return OffloadReport("cpu", "decompress", in_bytes, out_bytes,
                             0.0, compute, 0.0, total, host_cpu_ns=total,
                             result=out)

    def _decompress_cxl(self, in_bytes: int, out_bytes: int,
                        out: Any) -> Generator[Any, Any, OffloadReport]:
        """Pull compressed page from the device-memory zpool with D2D
        CS-read, decompress, NC-P the result straight into host LLC so the
        faulting thread's H2D loads hit locally (Insight 4)."""
        sim = self.p.sim
        start = sim.now
        cmd, host_cpu = yield from self.doorbell.open(
            Command("decompress", nbytes=in_bytes))

        pull_addrs = self._lines(in_bytes, host=False)
        t0 = sim.now
        xfer_proc = sim.spawn(
            self._lsu_burst(D2HOp.CS_READ, pull_addrs, d2d=True))
        yield sim.timeout_event(self._d2d_head_latency_ns())
        compute_done = sim.spawn(self.decompressor.process_streamed(
            in_bytes, self._d2d_pull_rate()))
        transfer_ns = yield xfer_proc.done
        yield compute_done.done
        compute_ns = self.decompressor.duration_ns(in_bytes)

        # NC-P the decompressed page into host LLC, pipelined with the
        # decompressor's output; only the tail shows.
        push_addrs = self._lines(out_bytes, host=True)
        writeback_ns = yield from self._lsu_burst(
            D2HOp.NC_P, push_addrs[:8], d2d=False)
        __, host_ns = yield from self.doorbell.close(
            Completion(cmd.tag, result=out_bytes), push_to_llc=True)
        host_cpu += host_ns
        total = sim.now - start
        return OffloadReport("cxl", "decompress", in_bytes, out_bytes,
                             transfer_ns, compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=out)

    def _decompress_pcie_dma(self, in_bytes: int, out_bytes: int,
                             out: Any) -> Generator[Any, Any, OffloadReport]:
        sim, pcie = self.p.sim, self.p.pcie
        start = sim.now
        host_cpu = 2 * DMA_HOST_SETUP_NS + PCIE_COMPLETION_HOST_NS
        yield sim.timeout_event(DMA_HOST_SETUP_NS)
        t0 = sim.now
        yield from pcie.dma_to_device(in_bytes)
        transfer_ns = sim.now - t0
        t0 = sim.now
        yield from self.decompressor.process(out_bytes)
        compute_ns = sim.now - t0
        yield sim.timeout_event(DMA_HOST_SETUP_NS)
        t0 = sim.now
        yield from pcie.dma_to_host(out_bytes)
        writeback_ns = sim.now - t0
        yield sim.timeout_event(PCIE_COMPLETION_HOST_NS)
        total = sim.now - start
        return OffloadReport("pcie-dma", "decompress", in_bytes, out_bytes,
                             transfer_ns, compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=out)

    def _decompress_pcie_rdma(self, in_bytes: int, out_bytes: int,
                              out: Any) -> Generator[Any, Any, OffloadReport]:
        sim, snic = self.p.sim, self.p.snic
        start = sim.now
        host_cpu = RDMA_HOST_STACK_NS + PCIE_COMPLETION_HOST_NS
        yield sim.timeout_event(RDMA_HOST_STACK_NS)
        t0 = sim.now
        yield from snic.rdma_transfer(in_bytes, to_device=True)
        transfer_ns = sim.now - t0
        t0 = sim.now
        yield from snic.arm_decompress(out_bytes)
        compute_ns = sim.now - t0
        t0 = sim.now
        yield from snic.rdma_transfer(out_bytes, to_device=False)
        writeback_ns = sim.now - t0
        yield from snic.interrupt_host()
        yield sim.timeout_event(PCIE_COMPLETION_HOST_NS)
        total = sim.now - start
        return OffloadReport("pcie-rdma", "decompress", in_bytes, out_bytes,
                             transfer_ns, compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=out)

    # ------------------------------------------------------------------
    # ksm data-plane functions (SVI-B)
    # ------------------------------------------------------------------

    def hash_page(self, transport: str, data: Optional[bytes] = None,
                  nbytes: int = PAGE_SIZE) -> Generator[Any, Any, OffloadReport]:
        """Compute the ksm change-hint checksum of one page.

        The checksum needs the whole page before it is valid, so transfer
        and compute do *not* pipeline (SVI-B).
        """
        self._check_transport(transport)
        value = XxhashIp.run(data) if (self.functional and data) else None
        sim = self.p.sim
        start = sim.now
        if transport == "cpu":
            compute = nbytes / HOST_HASH_RATE
            yield sim.timeout_event(compute)
            total = sim.now - start
            return self._record(OffloadReport(
                "cpu", "hash", nbytes, 4, 0.0, compute, 0.0, total,
                host_cpu_ns=total, result=value))
        if transport == "cxl":
            report = yield from self._offload_cxl(
                "hash", self._hash_cxl, nbytes, value)
            return self._record(report)
        # PCIe paths: transfer in, compute, tiny result back.
        report = yield from self._pcie_roundtrip(
            transport, "hash", nbytes, 4,
            self.hasher.process(nbytes) if transport == "pcie-dma"
            else self.p.snic.arm_hash(nbytes), value)
        return self._record(report)

    def _hash_cxl(self, nbytes: int,
                  value: Any) -> Generator[Any, Any, OffloadReport]:
        sim = self.p.sim
        start = sim.now
        cmd, host_cpu = yield from self.doorbell.open(
            Command("hash", nbytes=nbytes))
        transfer_ns = yield from self._lsu_burst(
            D2HOp.NC_READ, self._lines(nbytes, host=True), d2d=False)
        t0 = sim.now
        yield from self.hasher.process(nbytes)
        compute_ns = sim.now - t0
        writeback_ns, host_ns = yield from self.doorbell.close(
            Completion(cmd.tag, result=value), push_to_llc=True)
        host_cpu += host_ns
        total = sim.now - start
        return OffloadReport(
            "cxl", "hash", nbytes, 4, transfer_ns, compute_ns,
            writeback_ns, total, host_cpu_ns=host_cpu, result=value)

    def compare_pages(self, transport: str,
                      a: Optional[bytes] = None, b: Optional[bytes] = None,
                      nbytes: int = PAGE_SIZE,
                      ) -> Generator[Any, Any, OffloadReport]:
        """Byte-by-byte compare of two pages (2x the transfer volume);
        cxl-ksm pipelines the compare with the transfer (SVI-B)."""
        self._check_transport(transport)
        value = (ByteCompareIp.run(a, b)
                 if (self.functional and a is not None and b is not None)
                 else None)
        sim = self.p.sim
        start = sim.now
        volume = 2 * nbytes
        if transport == "cpu":
            compute = volume / HOST_MEMCMP_RATE
            yield sim.timeout_event(compute)
            total = sim.now - start
            return self._record(OffloadReport(
                "cpu", "compare", volume, 4, 0.0, compute, 0.0, total,
                host_cpu_ns=total, result=value))
        if transport == "cxl":
            report = yield from self._offload_cxl(
                "compare", self._compare_cxl, volume, value)
            return self._record(report)
        report = yield from self._pcie_roundtrip(
            transport, "compare", volume, 4,
            self.comparator.process(volume) if transport == "pcie-dma"
            else self.p.snic.arm_memcmp(volume), value)
        return self._record(report)

    def _compare_cxl(self, volume: int,
                     value: Any) -> Generator[Any, Any, OffloadReport]:
        sim = self.p.sim
        start = sim.now
        cmd, host_cpu = yield from self.doorbell.open(
            Command("compare", nbytes=volume))
        t0 = sim.now
        xfer_proc = sim.spawn(self._lsu_burst(
            D2HOp.NC_READ, self._lines(volume, host=True), d2d=False))
        yield sim.timeout_event(self._d2h_head_latency_ns())
        compute_done = sim.spawn(self.comparator.process_streamed(
            volume, self._d2h_pull_rate()))
        transfer_ns = yield xfer_proc.done
        yield compute_done.done
        compute_ns = self.comparator.duration_ns(volume)
        overlap_ns = sim.now - t0
        writeback_ns, host_ns = yield from self.doorbell.close(
            Completion(cmd.tag, result=value), push_to_llc=True)
        host_cpu += host_ns
        total = sim.now - start
        return OffloadReport(
            "cxl", "compare", volume, 4,
            max(0.0, overlap_ns - compute_ns), compute_ns, writeback_ns,
            total, host_cpu_ns=host_cpu, result=value)

    def _pcie_roundtrip(self, transport: str, op: str, in_bytes: int,
                        out_bytes: int, compute_gen: Generator,
                        value: Any) -> Generator[Any, Any, OffloadReport]:
        """Common PCIe shape: move input in, compute, tiny result back."""
        sim = self.p.sim
        start = sim.now
        if transport == "pcie-dma":
            host_cpu = DMA_HOST_SETUP_NS + PCIE_COMPLETION_HOST_NS
            yield sim.timeout_event(DMA_HOST_SETUP_NS)
            t0 = sim.now
            yield from self.p.pcie.dma_to_device(in_bytes)
            transfer_ns = sim.now - t0
        else:
            host_cpu = RDMA_HOST_STACK_NS + PCIE_COMPLETION_HOST_NS
            yield sim.timeout_event(RDMA_HOST_STACK_NS)
            t0 = sim.now
            yield from self.p.snic.rdma_transfer(in_bytes, to_device=True)
            transfer_ns = sim.now - t0
        t0 = sim.now
        yield from compute_gen
        compute_ns = sim.now - t0
        t0 = sim.now
        if transport == "pcie-dma":
            # The result DMA needs its own descriptor (host-side work).
            host_cpu += DMA_HOST_SETUP_NS
            yield sim.timeout_event(DMA_HOST_SETUP_NS)
            yield from self.p.pcie.dma_to_host(out_bytes)
        else:
            yield from self.p.snic.rdma_transfer(out_bytes, to_device=False)
            yield from self.p.snic.interrupt_host()
        writeback_ns = sim.now - t0
        yield sim.timeout_event(PCIE_COMPLETION_HOST_NS)
        total = sim.now - start
        return OffloadReport(transport, op, in_bytes, out_bytes,
                             transfer_ns, compute_ns, writeback_ns, total,
                             host_cpu_ns=host_cpu, result=value)
