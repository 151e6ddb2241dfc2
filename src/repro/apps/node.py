"""The server node: cores, memory pressure, and interference accounting.

This is the stage for the Fig-8 experiments.  A node has ``app_cores``
run queues (one Redis server or VM vCPU pinned per core, SVII
methodology); kernel-feature daemons compete for the same cores and
pollute the shared LLC.  Interference therefore reaches a request
through exactly three mechanistic channels:

1. **queueing** — a request waits while its core runs feature work;
2. **inline direct reclaim** — an allocating request below the *min*
   watermark performs reclaim itself before completing;
3. **cache pollution** — while feature data-planes stream pages through
   the cache hierarchy, every request's service time inflates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import KernelError, WorkloadError
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.rng import DeterministicRng


@dataclass
class MemoryPressure:
    """Free-memory accounting driving the reclaim watermarks.

    A counter model (not the functional frame allocator) so that Fig-8
    runs can cover seconds of simulated time over ~10^5 pages cheaply;
    the functional allocator is exercised by the integration tests.
    """

    total_pages: int
    free_pages: int
    min_pages: int
    low_pages: int
    high_pages: int

    def __post_init__(self) -> None:
        if not (0 < self.min_pages < self.low_pages < self.high_pages
                <= self.total_pages):
            raise KernelError(f"bad watermark ordering: {self}")

    @classmethod
    def sized(cls, total_pages: int) -> "MemoryPressure":
        min_pages = max(64, total_pages // 50)
        return cls(total_pages, total_pages,
                   min_pages, min_pages * 2, min_pages * 3)

    @property
    def below_low(self) -> bool:
        return self.free_pages < self.low_pages

    @property
    def below_min(self) -> bool:
        return self.free_pages < self.min_pages

    @property
    def above_high(self) -> bool:
        return self.free_pages > self.high_pages

    def consume(self, pages: int) -> int:
        """Allocate up to ``pages``; returns how many were granted."""
        granted = min(pages, self.free_pages)
        self.free_pages -= granted
        return granted

    def release(self, pages: int) -> None:
        self.free_pages = min(self.total_pages, self.free_pages + pages)


class ServerNode:
    """Cores + pressure + pollution for one interference scenario."""

    def __init__(self, sim: Simulator, rng: DeterministicRng,
                 app_cores: int, pressure: Optional[MemoryPressure] = None):
        if app_cores < 1:
            raise WorkloadError("need at least one application core")
        self.sim = sim
        self.rng = rng
        self.cores = [Resource(sim, 1, f"core{i}") for i in range(app_cores)]
        self.pressure = pressure or MemoryPressure.sized(1 << 18)
        # LLC-pollution bookkeeping: active polluters with weights.
        self._pollution: Dict[str, int] = {}
        self._pollution_weight: Dict[str, float] = {}
        self._service_factor = 1.0
        self._rr = 0
        self.feature_core_busy_ns = 0.0     # host cycles burned by features
        self.app_core_busy_ns = 0.0

    # -- core placement -----------------------------------------------------

    def core(self, index: int) -> Resource:
        return self.cores[index % len(self.cores)]

    def next_core_rr(self) -> Resource:
        """Round-robin placement for floating daemons (kswapd/ksmd are
        not pinned and preempt whichever core they land on)."""
        core = self.cores[self._rr % len(self.cores)]
        self._rr += 1
        return core

    # -- pollution ------------------------------------------------------------

    def pollute_start(self, source: str, weight: float) -> None:
        self._pollution[source] = self._pollution.get(source, 0) + 1
        self._pollution_weight[source] = weight
        self._sum_pollution()

    def pollute_stop(self, source: str) -> None:
        count = self._pollution.get(source, 0)
        if count <= 0:
            raise WorkloadError(f"pollution underflow for {source!r}")
        self._pollution[source] = count - 1
        self._sum_pollution()

    def _sum_pollution(self) -> None:
        # Summed in polluter insertion order, so every request reads
        # the float a per-request sum would give.
        factor = 1.0
        for source, count in self._pollution.items():
            if count > 0:
                factor += self._pollution_weight[source]
        self._service_factor = factor

    def service_factor(self) -> float:
        """Service-time inflation from currently active polluters."""
        return self._service_factor

    def pollution_active(self) -> bool:
        return any(count > 0 for count in self._pollution.values())
