"""System configuration: the paper's testbed (Table II) as dataclasses.

Every timing constant in the simulator lives here, with the derivation
documented next to it.  Absolute anchors come from numbers the paper (or
its cited companion work, Sun et al. MICRO'23) states explicitly:

* PCIe 5.0 round trip for a 64 B uncacheable read: ~1 us; a 256 B MMIO
  read therefore exceeds 4 us (SI, SII-A).
* The FPGA LSU issues one 64 B request per 400 MHz cycle -> 25.6 GB/s
  issue ceiling (SV-A).
* CXL x16 @ 32 GT/s has ~40 % more raw bandwidth than UPI 18 lanes
  @ 20 GT/s (SV-A).
* Host memory controllers have 32-entry x 64 B write queues; writes
  "complete" upon enqueue (SV-A).
* H2D loads to the same Agilex-7 as a Type-3 device measure ~390 ns
  (Sun et al.), and the host CPU runs 5.5x faster than the FPGA (SV-B).

Relative shapes (the +38 %/+96 %/... deltas of Figs 3-5) then emerge from
the component composition performed by the device and host models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import kib, mib


# ---------------------------------------------------------------------------
# Interconnect links
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkConfig:
    """A point-to-point interconnect link.

    ``propagation_ns`` is the one-way flight+logic latency of the link;
    ``bytes_per_ns`` the raw serialization rate in each direction;
    ``header_bytes`` per-message protocol overhead (TLP/flit header).
    """

    name: str
    propagation_ns: float
    bytes_per_ns: float
    header_bytes: int = 16

    def __post_init__(self) -> None:
        if self.propagation_ns < 0 or self.bytes_per_ns <= 0:
            raise ConfigError(f"invalid link config: {self}")

    def serialization_ns(self, payload_bytes: int) -> float:
        """Time to push one message's bits onto the wire."""
        return (payload_bytes + self.header_bytes) / self.bytes_per_ns


def cxl_link() -> LinkConfig:
    """CXL 1.1 over PCIe 5.0 x16: 32 GT/s x 16 / 8 = 64 GB/s raw.

    The 35 ns propagation reflects the hardened R-Tile CXL endpoint plus
    host-side CXL port logic (one direction).
    """
    return LinkConfig("cxl-x16", propagation_ns=35.0, bytes_per_ns=64.0)


def upi_link() -> LinkConfig:
    """UPI: 20 GT/s x 18 lanes / 8 = 45 GB/s raw; mature, lower latency."""
    return LinkConfig("upi", propagation_ns=27.0, bytes_per_ns=45.0)


def pcie_link(lanes: int = 16) -> LinkConfig:
    """Plain PCIe 5.0: 32 GT/s per lane; x16 = 64 GB/s, x32 (BF-3) doubles.

    Propagation includes TLP framing/replay logic, slightly above the CXL
    flit path.
    """
    if lanes not in (8, 16, 32):
        raise ConfigError(f"unsupported PCIe width: x{lanes}")
    return LinkConfig(
        f"pcie5-x{lanes}", propagation_ns=150.0, bytes_per_ns=4.0 * lanes,
        header_bytes=24,
    )


# ---------------------------------------------------------------------------
# DRAM / memory controllers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DramConfig:
    """One DRAM channel behind a memory controller."""

    name: str
    read_ns: float                 # closed-page random read latency
    write_queue_entries: int = 32  # 64 B posted-write queue entries
    bytes_per_ns: float = 38.4     # peak (sequential) channel bandwidth
    write_enqueue_ns: float = 4.0  # time to accept a posted write
    # Random single-line writes are row-cycle limited (activate + write +
    # precharge), far below the sequential peak.  This is what the write
    # queue drains at for the paper's random-address microbenchmark, and
    # what makes write bandwidth collapse past the queue capacity.
    random_write_ns: float = 50.0

    def __post_init__(self) -> None:
        if self.read_ns <= 0 or self.write_queue_entries < 1:
            raise ConfigError(f"invalid DRAM config: {self}")

    def drain_ns_per_line(self) -> float:
        """Time for the controller to retire one queued random 64 B write."""
        return self.random_write_ns


def ddr5_4800() -> DramConfig:
    """Host channel: DDR5-4800 = 38.4 GB/s; ~90 ns device-level read."""
    return DramConfig("ddr5-4800", read_ns=90.0, bytes_per_ns=38.4,
                      random_write_ns=50.0)


def ddr4_2400() -> DramConfig:
    """Agilex-7 device channel: DDR4-2400 = 19.2 GB/s; slower FPGA PHY."""
    return DramConfig("ddr4-2400", read_ns=130.0, bytes_per_ns=19.2,
                      random_write_ns=60.0)


def ddr5_5200() -> DramConfig:
    """BF-3 channel: DDR5-5200 = 41.6 GB/s."""
    return DramConfig("ddr5-5200", read_ns=95.0, bytes_per_ns=41.6,
                      random_write_ns=48.0)


# ---------------------------------------------------------------------------
# Host CPU
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostConfig:
    """One socket of the dual-socket Xeon 6538Y+ host (Table II)."""

    cores: int = 32
    freq_ghz: float = 2.2
    l1_kib: int = 48
    l2_kib: int = 2048
    llc_mib: int = 60
    llc_ways: int = 15
    mem_channels: int = 8
    dram: DramConfig = field(default_factory=ddr5_4800)

    # Latency anchors (core's view, local socket)
    issue_ns: float = 10.0          # core pipeline + L1/L2 miss detection
    l1_ns: float = 2.0
    l2_ns: float = 6.0
    llc_ns: float = 22.0
    home_agent_ns: float = 15.0     # CHA lookup/snoop filter
    # Memory-level parallelism windows (outstanding 64 B misses)
    load_mlp: int = 6               # fill buffers usable by demand loads
    nt_load_mlp: int = 6            # non-temporal loads coalesce worse
    store_mlp: int = 10             # senior-store drain window
    wc_buffers: int = 12            # write-combining buffers for nt-st
    # Uncacheable / non-temporal extra costs
    nt_load_extra_ns: float = 45.0  # fencing + no-LFB-reuse penalty
    nt_store_post_ns: float = 28.0  # retire once handed to WC buffer path
    # Cross-socket extras: an LLC miss at the home CHA must consult the
    # memory directory and wait for snoop responses before forwarding
    # remote data -- the reason remote-DRAM latency exceeds remote-LLC
    # latency by far more than the local LLC->DRAM delta.
    remote_miss_extra_ns: float = 90.0
    # Single-core LLC data-path throughput (per 64 B line)
    llc_bw_ns_per_line: float = 16.0
    llc_load_mlp: int = 6
    # Outstanding-request credits toward a CXL.mem region are scarcer than
    # toward local DRAM (uncore credit pools), capping H2D bandwidth.
    cxl_load_mlp: int = 3
    cxl_nt_load_mlp: int = 4       # nt loads coalesce better on UC-ish CXL

    cxl_store_window: int = 2       # strongly-ordered stores drain ~2 at a time

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz

    @property
    def llc_bytes(self) -> int:
        return mib(self.llc_mib)


# ---------------------------------------------------------------------------
# CXL Type-2 device (Agilex-7)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DcohConfig:
    """One DCOH slice: device caches + coherence engine (SIV).

    The device has one slice; SIV's "one or more instances" is not
    modelled (docs/TIMING_MODEL.md).
    """

    hmc_kib: int = 128         # host-memory cache, 4-way
    hmc_ways: int = 4
    dmc_kib: int = 32          # device-memory cache, direct-mapped
    dmc_ways: int = 1
    lookup_ns: float = 5.0     # HMC/DMC tag lookup (2 FPGA cycles)
    engine_ns: float = 42.0    # soft R-Tile wrapper + DCOH request handling
    write_issue_gap_ns: float = 10.0  # DCOH write-path throughput (4 cycles)


@dataclass(frozen=True)
class CxlType2Config:
    """Intel Agilex-7 I-Series configured as a CXL Type-2 device."""

    freq_mhz: float = 400.0          # FPGA fabric clock
    dcoh: DcohConfig = field(default_factory=DcohConfig)
    link: LinkConfig = field(default_factory=cxl_link)
    mem_channels: int = 2
    dram: DramConfig = field(default_factory=ddr4_2400)
    lsu_outstanding: int = 64        # CXL.cache request-address-file depth
    # Host-side CXL home-agent costs: the generic CXL coherence path is
    # less mature than UPI's (SV-A), hence pricier than
    # HostConfig.home_agent_ns.  Reads traverse the data path (54 ns);
    # writes/ownership grants complete at the CHA (30 ns); an LLC miss on
    # a CXL-originated read adds a directory consultation (48 ns).
    host_agent_ns: float = 54.0
    host_agent_write_ns: float = 30.0
    host_agent_miss_extra_ns: float = 48.0
    # H2D extra costs on the Type-2 path (absent on Type-3): DMC coherence
    # check, state downgrade of an owned line, and writeback of a modified
    # line before device memory can serve the host (SV-C).
    h2d_dmc_check_ns: float = 20.0
    h2d_state_change_ns: float = 45.0
    h2d_modified_writeback_ns: float = 160.0
    # H2D path: soft logic between hardened IP and the device MC
    h2d_fabric_ns: float = 170.0

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.freq_mhz

    @property
    def lsu_issue_ns(self) -> float:
        """One 64 B request per fabric cycle => 25.6 GB/s issue ceiling."""
        return self.cycle_ns


@dataclass(frozen=True)
class CxlType3Config:
    """The same Agilex-7 flashed as a Type-3 device: no CXL.cache, no
    device caches; H2D requests go straight to the device MC."""

    link: LinkConfig = field(default_factory=cxl_link)
    mem_channels: int = 2
    dram: DramConfig = field(default_factory=ddr4_2400)
    h2d_fabric_ns: float = 170.0


# ---------------------------------------------------------------------------
# PCIe devices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcieDeviceConfig:
    """Agilex-7 as a plain PCIe 5.0 x16 device (MMIO + DMA)."""

    link: LinkConfig = field(default_factory=pcie_link)
    dram: DramConfig = field(default_factory=ddr4_2400)
    mem_channels: int = 2
    # MMIO: an uncacheable 64 B read round trip is ~1 us (SII-A)
    mmio_read_rt_ns: float = 1000.0
    mmio_write_oneway_ns: float = 300.0   # WC write, one in flight (ordering)
    # DMA engine (Intel MCDMA-style)
    dma_setup_ns: float = 600.0           # descriptor build + doorbell + fetch
    dma_completion_ns: float = 300.0      # status write-back / polling notice
    dma_bytes_per_ns: float = 30.0        # sustained engine throughput


@dataclass(frozen=True)
class SnicConfig:
    """NVIDIA BlueField-3: PCIe 5.0 x32, RDMA + DOCA DMA + Arm cores."""

    link: LinkConfig = field(default_factory=lambda: pcie_link(32))
    dram: DramConfig = field(default_factory=ddr5_5200)
    arm_cores: int = 16
    arm_freq_ghz: float = 2.0
    rdma_post_ns: float = 250.0           # verbs post_send/doorbell on host
    rdma_nic_ns: float = 700.0            # NIC WQE fetch + processing
    rdma_bytes_per_ns: float = 40.0       # saturates ~40 GB/s (x32)
    doca_sw_ns: float = 1900.0            # DOCA DMA software stack overhead
    doca_bytes_per_ns: float = 25.0
    interrupt_ns: float = 2000.0          # host interrupt + wakeup cost


# ---------------------------------------------------------------------------
# Whole system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SanitizerConfig:
    """Opt-in runtime validation (see :mod:`repro.lint`).

    ``coherence`` arms the :class:`~repro.lint.sanitizer.CoherenceSanitizer`
    on the host LLC and every DCOH slice's HMC/DMC; ``races`` arms the
    sim-time :class:`~repro.lint.races.RaceDetector` in the event engine.
    ``strict`` raises on the first violation; otherwise violations
    accumulate for post-run ``assert_clean()``.  Both sanitizers are
    zero-cost when disarmed (the default), so production sweeps keep
    bit-identical outputs.
    """

    coherence: bool = False
    races: bool = False
    strict: bool = True

    @property
    def any_armed(self) -> bool:
        return self.coherence or self.races


@dataclass(frozen=True)
class SystemConfig:
    """The full testbed of Table II."""

    host: HostConfig = field(default_factory=HostConfig)
    upi: LinkConfig = field(default_factory=upi_link)
    cxl_t2: CxlType2Config = field(default_factory=CxlType2Config)
    cxl_t3: CxlType3Config = field(default_factory=CxlType3Config)
    pcie_dev: PcieDeviceConfig = field(default_factory=PcieDeviceConfig)
    snic: SnicConfig = field(default_factory=SnicConfig)
    seed: int = 2024
    # Relative gaussian noise applied to every timed stage, producing the
    # paper's error bars without perturbing medians.
    latency_noise: float = 0.03
    # Runtime sanitizers (disarmed by default; see repro.lint).
    sanitizers: SanitizerConfig = field(default_factory=SanitizerConfig)


def default_system() -> SystemConfig:
    """The testbed exactly as Table II describes it."""
    return SystemConfig()


def sub_numa_half_system() -> SystemConfig:
    """SVII methodology: sub-NUMA clustering, half the socket (16 cores,
    4 memory channels) to match the prior work's testbed."""
    host = HostConfig(cores=16, mem_channels=4, llc_mib=30)
    return SystemConfig(host=host)
