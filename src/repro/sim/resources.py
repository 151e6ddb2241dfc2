"""Shared-resource primitives built on the event engine.

Two primitives cover everything the models need:

:class:`Resource`
    a counted semaphore with FIFO admission — used for DMA engines,
    LD/ST-queue slots, memory-controller write-queue entries, link
    serialization, and accelerator-IP occupancy;
:class:`Pipe`
    an unbounded FIFO message channel — used for doorbell mailboxes,
    descriptor rings, and pipelined producer/consumer stages.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator, Timeout


class Resource:
    """FIFO counted resource with ``capacity`` concurrent holders."""

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        sim = self.sim
        if sim.race_detector is not None:
            # Resources are *ordering points* for the race detector: an
            # admission is logged as a touch, never as a conflict (the
            # grant chain itself provides the happens-before edge).
            sim.race_detector.touch(("resource", self.name or id(self)))
        ev = Event(sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            # Deferred wake is the semantic: the grant resumes the caller
            # through the scheduling queue, after already-queued work.
            # It takes two same-time entries (this one, then the
            # waiter's resume), and fastpath._replay's keys model both:
            # granting in one hop (ev.succeed(None) here) reorders
            # same-time lines against their trains, e.g. in
            # tests/core/test_fastpath_equiv.py::test_h2d_train_matches_per_line.
            sim.call_soon(ev.succeed, None)  # reprolint: disable=PERF401
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held slot, admitting the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter: _in_use unchanged.
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1

    def using(self, hold_ns: float) -> Generator[Any, Any, None]:
        """Process helper: acquire, hold for ``hold_ns``, release."""
        yield self.acquire()
        try:
            yield Timeout(hold_ns)
        finally:
            self.release()



class Pipe:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    next item (immediately if one is already queued).  Items are delivered
    in insertion order, one per getter, in getter-arrival order.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        rd = self.sim.race_detector
        if rd is not None:
            # Unordered same-timestamp puts deliver in scheduling order —
            # exactly the hazard the detector exists to surface.
            rd.mutate(("pipe", self.name or id(self)))
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        sim = self.sim
        ev = Event(sim)
        if self._items:
            # Deferred delivery keeps get-on-nonempty ordered after work
            # already queued at this timestamp (same contract as Resource).
            sim.call_soon(ev.succeed, self._items.popleft())  # reprolint: disable=PERF401
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking poll: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def remove_where(self, pred: Any) -> list[Any]:
        """Remove and return every queued item for which ``pred(item)`` is
        true, preserving the order of the rest.  Items already handed to a
        getter are not affected (used for reaping orphaned doorbell
        entries after a timeout)."""
        removed: list[Any] = []
        kept: Deque[Any] = deque()
        for item in self._items:
            (removed if pred(item) else kept).append(item)
        if removed:
            self._items = kept
        return removed
