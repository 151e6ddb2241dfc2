"""The CXL Type-2 device: Agilex-7 with DCOH, device memory, and CAFUs.

Assembles one DCOH slice (HMC + DMC), two DDR4-2400 channels of device
memory, an LSU CAFU for characterization, and the bias controller.  The
device also implements the H2D-target interface consumed by
:meth:`repro.host.cpu.Core.cxl_op`: every host access pays the soft-fabric
cost, triggers the DCOH coherence check (the Type-2 penalty of Fig 5),
and flips device-bias regions back to host bias (SIV-B).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.config import CxlType2Config
from repro.core.bias import BiasController
from repro.core.requests import BiasMode, MemLevel
from repro.devices.dcoh import DcohSlice
from repro.devices.lsu import LoadStoreUnit
from repro.host.home_agent import HomeAgent
from repro.interconnect.cxl import CxlPort
from repro.mem.address import AddressMap, Region
from repro.mem.backing import SparseMemory
from repro.mem.memctrl import MemorySystem
from repro.sim.engine import Simulator, Timeout
from repro.sim.rng import DeterministicRng
from repro.units import gib


class CxlType2Device:
    """One Agilex-7 flashed with the CXL Type-2 (io+cache+mem) IP."""

    def __init__(
        self,
        sim: Simulator,
        cfg: CxlType2Config,
        home: HomeAgent,
        mem_base: int,
        mem_size: int = gib(16),
        rng: Optional[DeterministicRng] = None,
        noise: float = 0.0,
    ):
        self.sim = sim
        self.cfg = cfg
        self.home = home
        self.port = CxlPort(sim, cfg.link)
        self.dev_mem = MemorySystem(sim, cfg.dram, cfg.mem_channels, "dev.mem")
        self.regions = AddressMap()
        self.regions.add(Region("devmem", mem_base, mem_size, kind="cxl"))
        self.bias = BiasController(self.regions)
        self.dcoh = DcohSlice(sim, cfg, self.port, home, self.dev_mem,
                              bias_of=self.bias.mode_of_addr)
        self.lsu = LoadStoreUnit(sim, cfg, self.dcoh, rng=rng, noise=noise)
        self._extra_lsus: list[LoadStoreUnit] = []
        # Functional contents of device memory (zpool lives here)
        self.memory = SparseMemory("devmem")
        self.h2d_reads = 0
        self.h2d_writes = 0
        # H2D accesses whose DMC check is still to come: a batched D2D
        # replay (repro.core.fastpath) cannot order its DMC work after them.
        self.checks_in_flight = 0

    def lsus(self, count: int) -> list[LoadStoreUnit]:
        """``count`` LSU CAFUs sharing this device's DCOH slice.

        SV-A notes a single 400 MHz LSU caps at 25.6 GB/s and that more
        (or faster) LSUs push bandwidth toward ~90 % of the interconnect
        maximum; each LSU has its own issue port and outstanding-request
        window, while the DCOH write pipe and the link wires stay shared.
        """
        while len(self._extra_lsus) + 1 < count:
            self._extra_lsus.append(
                LoadStoreUnit(self.sim, self.cfg, self.dcoh))
        return [self.lsu] + self._extra_lsus[:count - 1]

    # -- RAS --------------------------------------------------------------------

    @property
    def viral(self) -> bool:
        return self.dcoh.viral

    def enter_viral(self) -> None:
        """CXL viral containment: the device stops emitting data on
        .cache — every D2H/D2D request fails until :meth:`reset`."""
        self.dcoh.enter_viral()

    def reset(self) -> None:
        """Device hot reset: clear viral, drop both device caches (dirty
        lines written back in the background first)."""
        self.dcoh.flush_device_caches()
        self.dcoh.clear_viral()

    # -- region management -----------------------------------------------------

    def carve_region(self, name: str, size: int) -> Region:
        """Carve an additional device-memory region (its own bias mode)."""
        region = self.regions.add_after(name, size, kind="cxl")
        self.bias._mode[name] = BiasMode.HOST
        return region

    # -- H2D-target interface (consumed by Core.cxl_op) -------------------------

    def h2d_serve_read(self, addr: int) -> Generator[Any, Any, MemLevel]:
        """Device-side work for a host load of one device line."""
        self.h2d_reads += 1
        self.bias.h2d_touch(addr)
        self.checks_in_flight += 1
        try:
            yield Timeout(self.cfg.h2d_fabric_ns)
            yield from self.dcoh.h2d_check(addr, for_write=False)
        finally:
            self.checks_in_flight -= 1
        # DMC never serves the host: device memory is always accessed.
        yield from self.dev_mem.read_line(addr)
        return MemLevel.DEV_DRAM

    def h2d_serve_write(self, addr: int) -> Generator[Any, Any, MemLevel]:
        """Device-side work for a host store of one device line."""
        self.h2d_writes += 1
        self.bias.h2d_touch(addr)
        self.checks_in_flight += 1
        try:
            yield Timeout(self.cfg.h2d_fabric_ns)
            yield from self.dcoh.h2d_check(addr, for_write=True)
        finally:
            self.checks_in_flight -= 1
        yield from self.dev_mem.write_line(addr)
        return MemLevel.DEV_DRAM

    def h2d_post_write(self, addr: int) -> None:
        """Host nt-st: retired at the controller; device work continues in
        the background."""
        self.sim.spawn(self.h2d_serve_write(addr), "t2.posted-write")
