"""CXL data-poison semantics in the memory system and device caches."""

from __future__ import annotations

import pytest

from repro.config import default_system
from repro.core.requests import D2HOp, MemLevel
from repro.errors import FaultError, PoisonError
from repro.faults import FaultPlan
from repro.mem.cache import SetAssociativeCache
from repro.mem.coherence import LineState
from repro.mem.memctrl import MemorySystem


# ---------------------------------------------------------------------------
# memory controller
# ---------------------------------------------------------------------------

def _memsys(sim):
    return MemorySystem(sim, default_system().cxl_t2.dram, channels=1,
                        name="testmem")


def test_poisoned_read_pays_latency_then_raises(sim):
    mem = _memsys(sim)
    mem.poison(0x1000)

    def reader():
        try:
            yield from mem.read_line(0x1000)
        except PoisonError:
            return sim.now

    raised_at = sim.run_process(reader())
    assert raised_at > 0.0                 # DRAM access happened first
    assert mem.poison_detected == 1


def test_poison_tracks_the_whole_line(sim):
    mem = _memsys(sim)
    mem.poison(0x1008)                     # mid-line byte
    assert mem.is_poisoned(0x1000) and mem.is_poisoned(0x103F)
    assert not mem.is_poisoned(0x1040)


def test_full_line_write_scrubs_poison(sim):
    mem = _memsys(sim)
    mem.poison(0x2000)
    sim.run_process(mem.write_line(0x2000))
    assert not mem.is_poisoned(0x2000)
    sim.run_process(mem.read_line(0x2000))     # clean again
    assert mem.poison_detected == 0


def test_mem_poison_rate_injects_and_sticks(sim):
    """A rate-injected poison marks the DRAM image: the same line stays
    poisoned for subsequent readers until scrubbed."""
    mem = _memsys(sim)
    mem.faults = FaultPlan(rates={"mem_poison": 1.0})

    def reader(addr):
        try:
            yield from mem.read_line(addr)
        except PoisonError:
            return "poisoned"
        return "clean"

    assert sim.run_process(reader(0x3000)) == "poisoned"
    assert mem.is_poisoned(0x3000)
    mem.faults = FaultPlan()           # disarm; the image is still poisoned
    assert sim.run_process(reader(0x3000)) == "poisoned"


def test_unarmed_memsys_read_unchanged(sim):
    mem = _memsys(sim)
    latency = sim.run_process(mem.read_line(0x4000))
    assert latency > 0.0
    assert mem.poison_detected == 0


# ---------------------------------------------------------------------------
# cache lines
# ---------------------------------------------------------------------------

def test_cache_poison_travels_with_eviction(sim):
    """A dirty poisoned victim reports to the poison sink (modelling the
    writeback data carrying poison to the next level)."""
    cache = SetAssociativeCache("t", 64 * 4, 1)
    sunk = []
    cache.poison_sink = sunk.append
    cache.insert(0x0, LineState.MODIFIED)
    cache.poison_addr(0x0)
    assert cache.is_poisoned(0x0)
    # Same set, different tag: evicts the poisoned dirty line.
    cache.insert(64 * 4, LineState.MODIFIED)
    assert sunk == [0x0]
    assert cache.poison_evictions == 1


def test_cache_clear_poison(sim):
    cache = SetAssociativeCache("t", 64 * 4, 1)
    cache.insert(0x0, LineState.MODIFIED)
    cache.poison_addr(0x0)
    cache.clear_poison(0x0)
    assert not cache.is_poisoned(0x0)


def test_cache_poison_seen_flag(sim):
    """``poison_seen`` turns on with the first poisoned line and stays on;
    a poison of an absent line leaves it off."""
    cache = SetAssociativeCache("t", 64 * 4, 1)
    cache.insert(0x0, LineState.MODIFIED)
    assert not cache.poison_addr(0x40)
    assert not cache.poison_seen
    cache.poison_addr(0x0)
    assert cache.poison_seen
    cache.clear_poison(0x0)
    assert cache.poison_seen


def test_cache_residency_counts_without_side_effects(sim):
    cache = SetAssociativeCache("t", 64 * 8, 2)
    cache.insert(0x0, LineState.SHARED)
    cache.insert(0x40, LineState.MODIFIED)
    addrs = [0x0, 0x40, 0x80, 0x1000]
    assert cache.residency(addrs) == (2, False)
    cache.poison_addr(0x40)
    assert cache.residency(addrs) == (2, True)
    assert cache.residency([0x80]) == (0, False)
    assert (cache.hits, cache.misses) == (0, 0)
    assert [line.addr for line in cache.lines()] == [0x0, 0x40]


# ---------------------------------------------------------------------------
# DCOH: detection at consumption, scrub on write, viral containment
# ---------------------------------------------------------------------------

def test_d2d_read_of_poisoned_dmc_line_raises(platform):
    dcoh = platform.t2.dcoh
    (addr,) = platform.fresh_dev_lines(1)
    dcoh._fill_dmc(addr, LineState.EXCLUSIVE)
    dcoh.dmc.poison_addr(addr)
    with pytest.raises(PoisonError):
        platform.sim.run_process(dcoh.d2d(D2HOp.CO_READ, addr))
    assert dcoh.poison_hits == 1
    # Detection invalidates: the line is not served poisoned twice.
    assert dcoh.dmc.lookup(addr) is None


def test_d2h_read_of_poisoned_hmc_line_raises(platform):
    dcoh = platform.t2.dcoh
    (addr,) = platform.fresh_host_lines(1)
    dcoh._fill_hmc(addr, LineState.SHARED)
    dcoh.hmc.poison_addr(addr)
    with pytest.raises(PoisonError):
        platform.sim.run_process(dcoh.d2h(D2HOp.NC_READ, addr))
    assert dcoh.poison_hits == 1


def test_full_line_co_write_scrubs_cached_poison(platform):
    dcoh = platform.t2.dcoh
    (addr,) = platform.fresh_dev_lines(1)
    dcoh._fill_dmc(addr, LineState.MODIFIED)
    dcoh.dmc.poison_addr(addr)
    platform.sim.run_process(dcoh.d2d(D2HOp.CO_WRITE, addr))
    assert not dcoh.dmc.is_poisoned(addr)
    # And the line is now safely readable.
    platform.sim.run_process(dcoh.d2d(D2HOp.CO_READ, addr))


def test_poisoned_dirty_dmc_victim_poisons_device_memory(platform):
    """Eviction writes the poisoned data back: the poison moves from the
    cache into the DRAM image, where a later read trips on it."""
    dcoh = platform.t2.dcoh
    sim = platform.sim
    ways = dcoh.dmc.ways
    sets = dcoh.dmc.num_sets
    base = platform.t2.regions.get("devmem").base
    victim = base
    dcoh._fill_dmc(victim, LineState.MODIFIED)
    dcoh.dmc.poison_addr(victim)
    # Fill the victim's set until it is evicted.
    for i in range(1, ways + 1):
        dcoh._fill_dmc(victim + i * sets * 64, LineState.EXCLUSIVE)
    sim.run()         # let the writeback process drain
    assert dcoh.dmc.lookup(victim) is None
    assert platform.t2.dev_mem.is_poisoned(victim)


def test_viral_rejects_all_traffic_until_device_reset(platform):
    t2 = platform.t2
    (haddr,) = platform.fresh_host_lines(1)
    (daddr,) = platform.fresh_dev_lines(1)
    t2.enter_viral()
    assert t2.viral
    with pytest.raises(FaultError, match="viral"):
        platform.sim.run_process(t2.dcoh.d2h(D2HOp.NC_READ, haddr))
    with pytest.raises(FaultError, match="viral"):
        platform.sim.run_process(t2.dcoh.d2d(D2HOp.CO_READ, daddr))
    assert t2.dcoh.viral_rejections == 2
    t2.reset()
    assert not t2.viral
    level = platform.sim.run_process(
        t2.dcoh.d2d(D2HOp.CO_READ, daddr))
    assert level in (MemLevel.DMC, MemLevel.DEV_DRAM)


def test_device_reset_drops_cached_state(platform):
    """Reset flushes the device caches — viral containment means dirty
    device state was never trustworthy."""
    dcoh = platform.t2.dcoh
    (addr,) = platform.fresh_dev_lines(1)
    dcoh._fill_dmc(addr, LineState.MODIFIED)
    platform.t2.enter_viral()
    platform.t2.reset()
    assert dcoh.dmc.lookup(addr) is None
