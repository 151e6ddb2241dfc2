"""Platform wiring: the Table-II testbed as one object graph.

A :class:`Platform` owns the simulator and instantiates the host (home
agent, cores, DSA), the interconnects, and all four devices so that
experiments can mix and match initiators and targets.  Device memory is
mapped high in the physical address space, mirroring how CXL.mem exposes
it as a remote NUMA node.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig, default_system
from repro.devices.cxl_type2 import CxlType2Device
from repro.faults import NO_FAULTS, FaultPlan
from repro.devices.cxl_type3 import CxlType3Device
from repro.devices.pcie_fpga import PcieFpgaDevice
from repro.devices.snic import SmartNic
from repro.host.cpu import Core
from repro.host.dsa import DsaEngine
from repro.host.hierarchy import CacheHierarchy
from repro.host.home_agent import HomeAgent
from repro.interconnect.upi import UpiPort
from repro.lint.races import RaceDetector
from repro.lint.sanitizer import CoherenceSanitizer
from repro.mem.address import AddressMap, Region
from repro.mem.backing import SparseMemory
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.units import gib

HOST_DRAM_BYTES = gib(64)
DEVMEM_BASE = 1 << 40      # CXL.mem window, far above host DRAM


class Platform:
    """The dual-socket testbed with all four devices attached."""

    def __init__(self, cfg: Optional[SystemConfig] = None,
                 seed: Optional[int] = None):
        self.cfg = cfg or default_system()
        self.sim = Simulator()
        self.rng = DeterministicRng(seed if seed is not None else self.cfg.seed)
        noise = self.cfg.latency_noise

        # Host side
        self.home = HomeAgent(self.sim, self.cfg.host)
        self.upi = UpiPort(self.sim, self.cfg.upi)
        self.core = Core(self.sim, self.cfg.host, rng=self.rng.fork(1),
                         noise=noise)
        self.hierarchy = CacheHierarchy(self.sim, self.cfg.host, self.home)
        self.dsa = DsaEngine(self.sim)
        self.host_memory = SparseMemory("hostmem")

        # Address layout
        self.address_map = AddressMap()
        self.address_map.add(Region("host-dram", 0, HOST_DRAM_BYTES))

        # Devices
        self.t2 = CxlType2Device(
            self.sim, self.cfg.cxl_t2, self.home, mem_base=DEVMEM_BASE,
            rng=self.rng.fork(2), noise=noise,
        )
        self.t3 = CxlType3Device(self.sim, self.cfg.cxl_t3,
                                 mem_base=DEVMEM_BASE)
        self.pcie = PcieFpgaDevice(self.sim, self.cfg.pcie_dev)
        self.snic = SmartNic(self.sim, self.cfg.snic)

        self.address_map.add(
            Region("cxl-devmem", DEVMEM_BASE, self.t2.regions.get("devmem").size,
                   kind="cxl"))

        # Monotone line allocators so repeated measurements always touch
        # cold addresses (the paper's per-repetition fresh buffers).
        self._host_cursor = gib(1)
        self._dev_cursor = DEVMEM_BASE

        # RAS: inert until arm_faults() installs a real plan.
        self.faults = NO_FAULTS

        # Runtime sanitizers (repro.lint): inert unless the config (or an
        # explicit arm_sanitizers() call) arms them.
        self.coherence_sanitizer: Optional[CoherenceSanitizer] = None
        self.race_detector: Optional[RaceDetector] = None
        san = self.cfg.sanitizers
        if san.any_armed:
            self.arm_sanitizers(coherence=san.coherence, races=san.races,
                                strict=san.strict)

    # -- runtime sanitizers ----------------------------------------------------

    def arm_sanitizers(self, coherence: bool = True, races: bool = True,
                       strict: bool = True) -> None:
        """Arm the coherence sanitizer and/or the sim-time race detector
        across the platform: the host LLC and the DCOH's HMC and DMC.
        Idempotent; see :mod:`repro.lint` for the invariants."""
        dcoh = self.t2.dcoh
        caches = (self.home.llc, dcoh.hmc, dcoh.dmc)
        if coherence and self.coherence_sanitizer is None:
            sanitizer = CoherenceSanitizer(self.sim, strict=strict)
            for cache in caches:
                sanitizer.watch(cache)
            self.coherence_sanitizer = sanitizer
        if races and self.race_detector is None:
            detector = RaceDetector(self.sim, strict=strict).arm()
            for cache in caches:
                cache.race_detector = detector
            self.race_detector = detector

    def assert_sanitizers_clean(self) -> None:
        """Raise if any armed sanitizer recorded a violation."""
        if self.coherence_sanitizer is not None:
            self.coherence_sanitizer.assert_clean()
        if self.race_detector is not None:
            self.race_detector.assert_clean()

    # -- fault injection -------------------------------------------------------

    def arm_faults(self, plan) -> FaultPlan:
        """Install a :class:`~repro.faults.FaultPlan` (or a spec string
        like ``"link_crc=1e-6,device_hang@t=50ms"``) across the platform:
        the CXL link, the device memory system, and every consumer that
        reads ``platform.faults``.  Scheduled faults are bound to this
        platform's clock.  Returns the installed plan."""
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan, seed=self.cfg.seed)
        self.faults = plan
        self.t2.port.link.faults = plan
        self.t2.dev_mem.faults = plan
        plan.bind(self)
        return plan

    # -- scratch-address allocation -------------------------------------------

    def fresh_host_lines(self, count: int) -> list[int]:
        """``count`` never-before-touched host cache-line addresses."""
        base = self._host_cursor
        self._host_cursor += count * 64
        if self._host_cursor > HOST_DRAM_BYTES:
            raise MemoryError("host scratch region exhausted")
        return [base + i * 64 for i in range(count)]

    def fresh_dev_lines(self, count: int) -> list[int]:
        """``count`` fresh device-memory line addresses."""
        base = self._dev_cursor
        self._dev_cursor += count * 64
        region = self.t2.regions.get("devmem")
        if self._dev_cursor > region.end:
            raise MemoryError("device scratch region exhausted")
        return [base + i * 64 for i in range(count)]
