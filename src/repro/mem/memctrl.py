"""Memory controllers with posted-write queues.

The single most shape-critical mechanism in Fig 3 lives here: each memory
controller has a 32-entry x 64 B write queue, and a write *completes from
the issuer's perspective* as soon as it is accepted into the queue (SV-A,
citing [7]).  Reads always pay the full DRAM latency.  Consequently:

* 16 x 64 B writes (1 KB) vanish into the queues -> writes show *higher*
  bandwidth than reads at small N;
* once outstanding writes exceed the aggregate queue capacity
  (8 channels x 32 x 64 B = 16 KB on the host), enqueue blocks on drain and
  write bandwidth collapses to the DRAM rate.

Both behaviours fall out of the :class:`MemoryChannel` event model and are
asserted on in ``tests/mem/test_memctrl.py`` and swept by the Fig-3
ablation bench.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.config import DramConfig
from repro.errors import ConfigError, PoisonError
from repro.faults import NO_FAULTS
from repro.mem.address import line_base
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import Resource
from repro.units import CACHELINE


class MemoryChannel:
    """One DRAM channel behind one controller."""

    def __init__(self, sim: Simulator, cfg: DramConfig, name: str = ""):
        self.sim = sim
        self.cfg = cfg
        self.name = name or cfg.name
        # Posted-write queue entries; acquiring blocks when the queue is full.
        self._wq = Resource(sim, cfg.write_queue_entries, f"{self.name}.wq")
        # The DRAM device itself retires one line at a time.
        self._drain = Resource(sim, 1, f"{self.name}.drain")
        # Read datapath: reads pipeline, limited by channel bandwidth.
        self._read_bw = Resource(sim, 1, f"{self.name}.rdbw")
        self.reads = 0
        self.writes = 0

    # -- timed operations (process generators) ------------------------------

    def read_line(self) -> Generator[Any, Any, float]:
        """Read one 64 B line: full DRAM latency, bandwidth-limited.

        Returns the latency experienced by this read.
        """
        self.reads += 1
        start = self.sim.now
        # Serialize on the channel data bus for one line's worth of time...
        yield from self._read_bw.using(CACHELINE / self.cfg.bytes_per_ns)
        # ...then pay the array-access latency (overlappable across banks,
        # so it is not held as a resource).
        yield Timeout(self.cfg.read_ns)
        return self.sim.now - start

    def write_line(self) -> Generator[Any, Any, float]:
        """Post one 64 B write: complete at enqueue; drain in background.

        Returns the latency until the write is *accepted* (what issuers
        observe), not until DRAM is updated.
        """
        self.writes += 1
        start = self.sim.now
        yield self._wq.acquire()          # blocks only when the queue is full
        yield Timeout(self.cfg.write_enqueue_ns)
        self.sim.spawn(self._drain_one(), f"{self.name}.drain1")
        return self.sim.now - start

    def _drain_one(self) -> Generator[Any, Any, None]:
        yield from self._drain.using(self.cfg.drain_ns_per_line())
        self._wq.release()

    @property
    def queued_writes(self) -> int:
        return self._wq.in_use


class MemorySystem:
    """N line-interleaved channels (a socket's 8, or a device's 2)."""

    def __init__(self, sim: Simulator, cfg: DramConfig, channels: int,
                 name: str = "mem"):
        if channels < 1:
            raise ConfigError(f"need at least one channel, got {channels}")
        self.sim = sim
        self.name = name
        self.channels = [
            MemoryChannel(sim, cfg, f"{name}.ch{i}") for i in range(channels)
        ]
        # RAS: line bases whose DRAM image carries CXL data poison.  A
        # read of a poisoned line pays the full access latency and then
        # raises PoisonError; a full-line write scrubs the poison.
        self.poisoned: set[int] = set()
        self.faults = NO_FAULTS
        self.poison_detected = 0

    def channel_for(self, addr: int) -> MemoryChannel:
        return self.channels[(addr // CACHELINE) % len(self.channels)]

    def read_line(self, addr: int) -> Generator[Any, Any, float]:
        if self.poisoned or self.faults.active:
            return self._read_line_ras(addr)
        return self.channel_for(addr).read_line()

    def _read_line_ras(self, addr: int) -> Generator[Any, Any, float]:
        """Fault path of :meth:`read_line` (never entered when no line is
        poisoned and no plan is armed)."""
        latency = yield from self.channel_for(addr).read_line()
        base = line_base(addr)
        if base in self.poisoned:
            self.poison_detected += 1
            raise PoisonError(f"{self.name}: poisoned line {hex(base)}")
        if self.faults.check("mem_poison"):
            # An uncorrectable error struck this very access: the line is
            # now poisoned in the DRAM image and this consumer sees it.
            self.poisoned.add(base)
            self.poison_detected += 1
            raise PoisonError(f"{self.name}: poisoned line {hex(base)}")
        return latency

    def write_line(self, addr: int) -> Generator[Any, Any, float]:
        if self.poisoned:
            self.poisoned.discard(line_base(addr))   # full-line scrub
        return self.channel_for(addr).write_line()

    def poison(self, addr: int) -> None:
        """Mark ``addr``'s line as poisoned in the DRAM image."""
        self.poisoned.add(line_base(addr))

    def is_poisoned(self, addr: int) -> bool:
        return line_base(addr) in self.poisoned

    @property
    def total_reads(self) -> int:
        return sum(ch.reads for ch in self.channels)

    @property
    def total_writes(self) -> int:
        return sum(ch.writes for ch in self.channels)

    @property
    def write_queue_capacity_bytes(self) -> int:
        return sum(
            ch.cfg.write_queue_entries * CACHELINE for ch in self.channels
        )
