"""DCOH: the Device COHerence engine of the CXL Type-2 device (SIV).

One DCOH slice owns the two halves of the device cache — the 4-way 128 KB
*host memory cache* (HMC) and the direct-mapped 32 KB *device memory
cache* (DMC) — and performs every coherence action of Table III:

=========  =======================  ===========================
request    HMC line after           host-LLC line after
=========  =======================  ===========================
NC-P       Invalid                  Modified
NC-rd      No change                No change
NC-wr      Invalid                  Invalid
CO-rd      M/E->M/E, S->E, fill E   Invalid
CO-wr      Modified                 Invalid
CS-rd      Shared (fills on miss)   No change / impl-defined
=========  =======================  ===========================

D2D requests consult the DMC first and then device memory; in *host-bias*
mode the engine additionally checks host cache before touching device
memory (writes always; reads only on a DMC miss), while *device-bias*
mode skips the host entirely (SIV-B).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.config import CxlType2Config
from repro.core.requests import BiasMode, D2HOp, MemLevel
from repro.errors import DeviceError, FaultError, PoisonError
from repro.host.home_agent import AgentCosts, HomeAgent
from repro.interconnect.cxl import CxlPort
from repro.mem.cache import SetAssociativeCache
from repro.mem.coherence import LineState
from repro.mem.memctrl import MemorySystem
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import Resource
from repro.units import kib

# Extra engine occupancy per host-bias D2D write: the coherence check
# shares the DCOH write pipeline, shaving ~10 % off write bandwidth
# (Fig 4 measures 8-13 %).
HOST_BIAS_WRITE_GAP_EXTRA_NS = 1.2


class DcohSlice:
    """One DCOH slice with its HMC, DMC, and CXL.cache machinery."""

    def __init__(
        self,
        sim: Simulator,
        cfg: CxlType2Config,
        port: CxlPort,
        home: HomeAgent,
        dev_mem: Optional[MemorySystem],
        bias_of: Optional[Callable[[int], BiasMode]] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.port = port
        self.home = home
        self.dev_mem = dev_mem
        self.hmc = SetAssociativeCache("hmc", kib(cfg.dcoh.hmc_kib),
                                       cfg.dcoh.hmc_ways)
        self.dmc = SetAssociativeCache("dmc", kib(cfg.dcoh.dmc_kib),
                                       cfg.dcoh.dmc_ways)
        # Which bias mode governs a device address (installed by the
        # BiasController; defaults to host-bias per the CXL spec).
        self._bias_of = bias_of or (lambda addr: BiasMode.HOST)
        # DCOH write pipeline: one write per cfg.dcoh.write_issue_gap_ns
        self._write_pipe = Resource(sim, 1, "dcoh.wr")
        self.costs = AgentCosts(
            read_ns=cfg.host_agent_ns,
            write_ns=cfg.host_agent_write_ns,
            miss_extra_ns=cfg.host_agent_miss_extra_ns,
        )
        self.d2h_count = 0
        self.d2d_count = 0
        # RAS (CXL viral containment): while viral, the device refuses to
        # emit data on .cache — every D2H/D2D request is rejected until a
        # device reset clears the condition.
        self.viral = False
        self.viral_rejections = 0
        self.poison_hits = 0
        # Poisoned dirty DMC victims carry their poison back into the
        # device-memory image (the writeback data *is* the poison); the
        # set defers marking until after the posted write lands, since a
        # plain write scrubs.
        self._poisoned_writebacks: set[int] = set()
        if dev_mem is not None:
            self.dmc.poison_sink = self._poisoned_writebacks.add

    # ------------------------------------------------------------------
    # D2H requests (SIV-A)
    # ------------------------------------------------------------------

    def enter_viral(self) -> None:
        """Enter CXL viral containment: fail all D2H/D2D until reset."""
        self.viral = True

    def clear_viral(self) -> None:
        self.viral = False

    def _viral_reject(self, kind: str) -> None:
        self.viral_rejections += 1
        raise FaultError(f"DCOH is viral: {kind} request rejected")

    def _consume(self, cache: SetAssociativeCache, line: Any) -> None:
        """Poison check at the point a cached line's data is consumed."""
        if line.poisoned:
            self.poison_hits += 1
            cache.invalidate(line.addr)
            raise PoisonError(
                f"{cache.name}: consumed poisoned line {hex(line.addr)}")

    def d2h(self, op: D2HOp, addr: int) -> Generator[Any, Any, MemLevel]:
        """Serve one 64 B D2H request; returns where it was served from."""
        if self.viral:
            self._viral_reject("D2H")
        self.d2h_count += 1
        yield Timeout(self.cfg.dcoh.engine_ns)
        yield Timeout(self.cfg.dcoh.lookup_ns)
        handler = {
            D2HOp.NC_READ: self._d2h_nc_read,
            D2HOp.CS_READ: self._d2h_cs_read,
            D2HOp.CO_READ: self._d2h_co_read,
            D2HOp.CO_WRITE: self._d2h_co_write,
            D2HOp.NC_WRITE: self._d2h_nc_write,
            D2HOp.NC_P: self._d2h_nc_push,
        }[op]
        return (yield from handler(addr))

    def _hmc_access(self) -> Generator[Any, Any, None]:
        yield Timeout(self.cfg.dcoh.lookup_ns)  # data array access

    def _d2h_nc_read(self, addr: int) -> Generator[Any, Any, MemLevel]:
        line = self.hmc.lookup(addr)
        if line is not None:  # serve from HMC, no state change anywhere
            self._consume(self.hmc, line)
            yield from self._hmc_access()
            return MemLevel.HMC
        yield from self.port.d2h_req_up()
        level = yield from self.home.read_current(addr, self.costs)
        yield from self.port.data_down()
        return level  # no HMC fill: that is the NC/CS distinction

    def _d2h_cs_read(self, addr: int) -> Generator[Any, Any, MemLevel]:
        line = self.hmc.lookup(addr)
        if line is not None:
            self._consume(self.hmc, line)
            yield from self._hmc_access()
            line.state = LineState.SHARED  # Table III: always ends Shared
            return MemLevel.HMC
        yield from self.port.d2h_req_up()
        level = yield from self.home.read_shared(addr, self.costs)
        yield from self.port.data_down()
        self._fill_hmc(addr, LineState.SHARED)
        return level

    def _d2h_co_read(self, addr: int) -> Generator[Any, Any, MemLevel]:
        line = self.hmc.lookup(addr)
        if line is not None and line.state.is_writable:
            self._consume(self.hmc, line)
            yield from self._hmc_access()  # M/E -> M/E, served locally
            return MemLevel.HMC
        # Invalid or Shared: obtain exclusive ownership with data
        yield from self.port.d2h_req_up()
        level = yield from self.home.read_own(addr, self.costs)
        yield from self.port.data_down()
        self._fill_hmc(addr, LineState.EXCLUSIVE)
        return level

    def _d2h_co_write(self, addr: int) -> Generator[Any, Any, MemLevel]:
        # The write pipe gates *issue throughput* only; the transaction
        # itself proceeds pipelined with later writes.
        yield from self._write_pipe.using(self.cfg.dcoh.write_issue_gap_ns)
        line = self.hmc.peek(addr)
        if line is not None and line.state.is_writable:
            yield from self._hmc_access()
            line.state = LineState.MODIFIED
            line.scrub_poison()            # full-line write scrubs poison
            return MemLevel.HMC
        # Need exclusive ownership first (no data: full-line write)
        yield from self.port.d2h_req_up()
        level = yield from self.home.grant_ownership(addr, self.costs)
        yield from self.port.ack_down()
        self._fill_hmc(addr, LineState.MODIFIED)
        return level

    def _d2h_nc_write(self, addr: int) -> Generator[Any, Any, MemLevel]:
        yield from self._write_pipe.using(self.cfg.dcoh.write_issue_gap_ns)
        self.hmc.invalidate(addr)  # Table III: HMC -> Invalid
        yield from self.port.d2h_data_up()
        level = yield from self.home.write_invalidate(addr, self.costs)
        yield from self.port.ack_down()
        return level

    def _d2h_nc_push(self, addr: int) -> Generator[Any, Any, MemLevel]:
        yield from self._write_pipe.using(self.cfg.dcoh.write_issue_gap_ns)
        # Table III: HMC ends Invalid.  Invalidate on the issue side, so
        # the host never observes its new MODIFIED copy coexisting with a
        # stale HMC sharer (the push carries the whole line anyway).
        self.hmc.invalidate(addr)
        yield from self.port.d2h_data_up()
        level = yield from self.home.push_line(addr, self.costs)
        yield from self.port.ack_down()
        return level

    # ------------------------------------------------------------------
    # D2D requests (SIV-B)
    # ------------------------------------------------------------------

    def d2d(self, op: D2HOp, addr: int) -> Generator[Any, Any, MemLevel]:
        """Serve one 64 B D2D request under the region's bias mode."""
        if self.viral:
            self._viral_reject("D2D")
        if self.dev_mem is None:
            raise DeviceError(
                "this device has no device memory (CXL Type-1): "
                "D2D requests are not possible")
        self.d2d_count += 1
        bias = self._bias_of(addr)
        yield Timeout(self.cfg.dcoh.engine_ns)
        yield Timeout(self.cfg.dcoh.lookup_ns)
        if op.is_read:
            return (yield from self._d2d_read(op, addr, bias))
        if op is D2HOp.NC_P:
            raise DeviceError("NC-P targets host LLC; it is not a D2D type")
        return (yield from self._d2d_write(op, addr, bias))

    def _d2d_read(self, op: D2HOp, addr: int,
                  bias: BiasMode) -> Generator[Any, Any, MemLevel]:
        line = self.dmc.lookup(addr)
        if line is not None:
            # DMC hit: a valid DMC line implies no newer host copy, so even
            # host-bias mode skips the host check (SV-B observes reads
            # hitting DMC cost the same in both modes).
            self._consume(self.dmc, line)
            yield from self._hmc_access()
            return MemLevel.DMC
        if bias is BiasMode.HOST:
            yield from self._host_snoop(addr, invalidate=False)
            refreshed = self.dmc.peek(addr)
            if refreshed is not None:
                # The snoop pulled the host's modified copy into the DMC:
                # serve it directly, preserving its MODIFIED state.
                yield from self._hmc_access()
                return MemLevel.DMC
        yield from self.dev_mem.read_line(addr)
        if op is not D2HOp.NC_READ:
            # Device-bias strips coherence semantics: CO-rd and CS-rd both
            # degrade to plain cacheable reads (SIV-B), and host-bias reads
            # fill shared/exclusive per their D2H meaning.
            state = (LineState.SHARED if op is D2HOp.CS_READ
                     else LineState.EXCLUSIVE)
            self._fill_dmc(addr, state)
        return MemLevel.DEV_DRAM

    def _d2d_write(self, op: D2HOp, addr: int,
                   bias: BiasMode) -> Generator[Any, Any, MemLevel]:
        gap = self.cfg.dcoh.write_issue_gap_ns
        if bias is BiasMode.HOST:
            # The coherence check shares the write pipeline stage.
            gap += HOST_BIAS_WRITE_GAP_EXTRA_NS
        yield from self._write_pipe.using(gap)
        if bias is BiasMode.HOST:
            yield from self._host_snoop(addr, invalidate=True)
        if op is D2HOp.CO_WRITE:
            line = self.dmc.peek(addr)
            if line is not None:
                yield from self._hmc_access()
                line.state = LineState.MODIFIED
                line.scrub_poison()        # full-line write scrubs poison
                return MemLevel.DMC
            self._fill_dmc(addr, LineState.MODIFIED)
            yield from self._hmc_access()
            return MemLevel.DMC
        # NC-write: bypass DMC, write device memory (posted)
        self.dmc.invalidate(addr)
        yield from self.dev_mem.write_line(addr)
        return MemLevel.DEV_DRAM

    def _host_snoop(self, addr: int,
                    invalidate: bool) -> Generator[Any, Any, None]:
        """Host-bias coherence check: ask the host whether it caches this
        device line; pull back / invalidate a modified copy."""
        yield from self.port.d2h_req_up()
        yield Timeout(self.costs.write_ns)
        state = self.home.llc_state(addr)
        if state.is_dirty:
            # Host holds newer data: transfer it down and refresh the DMC.
            # The host copy is invalidated before the DMC fill lands, so
            # two MODIFIED holders never coexist, even transiently.
            yield from self.port.data_down()
            self.home.llc.set_state(addr, LineState.INVALID)
            self._fill_dmc(addr, LineState.MODIFIED)
        else:
            if invalidate and state.is_valid:
                self.home.llc.set_state(addr, LineState.INVALID)
            yield from self.port.ack_down()

    # ------------------------------------------------------------------
    # H2D assistance (SIV / SV-C)
    # ------------------------------------------------------------------

    def h2d_check(self, addr: int,
                  for_write: bool) -> Generator[Any, Any, None]:
        """Coherence work the Type-2 device performs on every H2D request
        before device memory is accessed.  DMC never *serves* host
        requests — it is checked, downgraded, or flushed (SV-C)."""
        yield Timeout(self.cfg.h2d_dmc_check_ns)
        line = self.dmc.peek(addr)
        if line is None:
            return
        if line.state.is_dirty:
            # Write the newest data back so device memory can serve.
            yield Timeout(self.cfg.h2d_modified_writeback_ns)
            yield from self.dev_mem.write_line(addr)
            if line.poisoned:
                # The writeback data carried poison into device memory.
                self.dev_mem.poison(addr)
            self.dmc.set_state(
                addr, LineState.INVALID if for_write else LineState.SHARED)
        elif line.state in (LineState.OWNED, LineState.EXCLUSIVE):
            yield Timeout(self.cfg.h2d_state_change_ns)
            self.dmc.set_state(
                addr, LineState.INVALID if for_write else LineState.SHARED)
        elif line.state is LineState.SHARED and for_write:
            yield Timeout(self.cfg.h2d_state_change_ns)
            self.dmc.set_state(addr, LineState.INVALID)
        # SHARED + read: nothing to do beyond the check itself.

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _fill_hmc(self, addr: int, state: LineState) -> None:
        self.hmc.insert(addr, state, writeback=self._hmc_writeback)

    def _hmc_writeback(self, addr: int) -> None:
        """A dirty HMC victim belongs to *host* memory: push it back."""
        self.sim.spawn(self._hmc_writeback_proc(addr), "hmc.writeback")

    def _hmc_writeback_proc(self, addr: int) -> Generator[Any, Any, None]:
        yield from self.port.d2h_data_up()
        yield from self.home.write_invalidate(addr, self.costs)
        yield from self.port.ack_down()

    def _fill_dmc(self, addr: int, state: LineState) -> None:
        self.dmc.insert(addr, state, writeback=self._dmc_writeback)

    def _dmc_writeback(self, addr: int) -> None:
        self.sim.spawn(self._dmc_writeback_proc(addr), "dmc.writeback")

    def prime_dmc(self, addrs: Iterable[int], state: LineState) -> List[int]:
        """Methodology: fill the DMC with ``addrs`` in ``state`` at once.

        Returns the dirty victims in eviction order.  Their writebacks
        are owed: a bulk train posts them (``writebacks``), or
        :meth:`write_back` spawns them as :meth:`_fill_dmc` would have."""
        victims: List[int] = []
        self.dmc.fill(addrs, state, victims.append)
        return victims

    def write_back(self, victims: Iterable[int]) -> None:
        """Spawn the writebacks of DMC ``victims``, in order."""
        for addr in victims:
            self._dmc_writeback(addr)

    def _dmc_writeback_proc(self, addr: int) -> Generator[Any, Any, None]:
        yield from self.dev_mem.write_line(addr)
        if addr in self._poisoned_writebacks:
            self._poisoned_writebacks.discard(addr)
            self.dev_mem.poison(addr)

    def flush_device_caches(self) -> None:
        """Methodology helper: flush HMC and DMC (dirty lines written back
        in the background, as the device's flush mechanism does)."""
        self.hmc.flush_all(self._hmc_writeback)
        self.dmc.flush_all(self._dmc_writeback)
