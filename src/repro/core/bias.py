"""Bias-mode management for device-memory regions (SIV-B).

A CXL Type-2 device may carve its memory into regions and run each in
host- or device-bias mode.  Switching host->device bias requires software
preparation: flush the region's lines from host cache, then grant the
device exclusive access.  The reverse switch is automatic — the moment an
H2D request touches a device-bias region, that region falls back to
host-bias.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.requests import BiasMode
from repro.errors import DeviceError
from repro.host.cpu import Core
from repro.host.home_agent import HomeAgent
from repro.mem.address import AddressMap


class BiasController:
    """Tracks and switches the bias mode of each device-memory region."""

    def __init__(self, regions: AddressMap):
        self.regions = regions
        self._mode: Dict[str, BiasMode] = {
            region.name: BiasMode.HOST for region in regions
        }
        self.switches_to_device = 0
        self.switches_to_host = 0

    def mode_of_region(self, name: str) -> BiasMode:
        try:
            return self._mode[name]
        except KeyError:
            raise DeviceError(f"unknown device-memory region {name!r}")

    def mode_of_addr(self, addr: int) -> BiasMode:
        region = self.regions.try_find(addr)
        if region is None:
            raise DeviceError(f"address {hex(addr)} not in device memory")
        return self._mode[region.name]

    def mode_of_span(self, lo: int, hi: int) -> Optional[BiasMode]:
        """The mode of every address in ``[lo, hi]`` when one region
        holds them all (regions are contiguous), else None."""
        region = self.regions.try_find(lo)
        if region is None or not region.contains(hi):
            return None
        return self._mode[region.name]

    # -- switching -----------------------------------------------------------

    def enter_device_bias(self, name: str, core: Core,
                          home: HomeAgent) -> Generator[Any, Any, None]:
        """Timed process: the host-side preparation for device bias.

        Software flushes every line of the region from host cache (paying
        CLFLUSH cost per line) before granting exclusive access (SIV-B).
        """
        region = self.regions.get(name)
        for line_addr in region.lines():
            yield from core.clflush(line_addr, home)
        self._mode[name] = BiasMode.DEVICE
        self.switches_to_device += 1

    def force_device_bias(self, name: str) -> None:
        """Untimed variant for tests/benchmark setup (the flush cost is
        not part of the measured access path)."""
        self.mode_of_region(name)  # validates the name
        self._mode[name] = BiasMode.DEVICE
        self.switches_to_device += 1

    def h2d_touch(self, addr: int) -> None:
        """An H2D request to a device-bias region flips it to host bias
        immediately (SIV-B)."""
        region = self.regions.try_find(addr)
        if region is None:
            return
        if self._mode[region.name] is BiasMode.DEVICE:
            self._mode[region.name] = BiasMode.HOST
            self.switches_to_host += 1
