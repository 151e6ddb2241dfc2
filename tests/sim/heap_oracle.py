"""Heap reference engine: one binary heap plus a FIFO delta queue.

This is the straightforward event loop the
:class:`~repro.sim.engine.Simulator` — with its inlined schedule paths,
deadline buckets and tombstone compaction — must match callback for
callback:
future work goes on a heap keyed ``(time, seq)``, zero-delay work on a
FIFO at the current time, and the run loop merges the two by ``seq``.
Cancelled timers are never reaped; their entries pop at their slot and
skip the trigger, so the final clock is where the last tombstone left
it.

It implements just the API the differential tests drive — ``spawn``,
``schedule``, ``call_soon``, ``timeout_event``, ``timer``, ``any_of``
and ``run`` with an optional ``until`` — and spends sequence numbers
exactly where
the engine does, so the final ``_seq`` can be compared too.  It models
no race detector, failure propagation or nested generators.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.engine import Timeout


class OracleEvent:
    def __init__(self, sim: "HeapOracle"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> None:
        self.triggered = True
        self.value = value
        for cb in self._callbacks:
            self.sim.call_soon(cb, value)
        self._callbacks = []

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        if self.triggered:
            self.sim.call_soon(cb, self.value)
        else:
            self._callbacks.append(cb)


class OracleTimer:
    def __init__(self, sim: "HeapOracle"):
        self.event = OracleEvent(sim)
        self.cancelled = False

    def cancel(self) -> bool:
        if self.event.triggered:
            return False
        self.cancelled = True
        return True

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.event.triggered

    def _fire(self, value: Any) -> None:
        if not self.cancelled:
            self.event.succeed(value)


class HeapOracle:
    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: list = []
        self._delta: deque = deque()

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> None:
        self._seq += 1
        if delay == 0.0:
            self._delta.append((self._seq, fn, args))
        else:
            heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        self.schedule(0.0, fn, *args)

    def timeout_event(self, delay: float, value: Any = None) -> OracleEvent:
        ev = OracleEvent(self)
        self.schedule(delay, ev.succeed, value)
        return ev

    def timer(self, delay: float, value: Any = None) -> OracleTimer:
        handle = OracleTimer(self)
        self.schedule(delay, handle._fire, value)
        return handle

    def any_of(self, events: List[OracleEvent]) -> OracleEvent:
        done = OracleEvent(self)

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if not done.triggered:
                    done.succeed((i, value))
            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    def spawn(self, gen: Any) -> None:
        def step(value: Any) -> None:
            try:
                command = gen.send(value)
            except StopIteration:
                return
            if isinstance(command, Timeout):
                self.schedule(command.delay, step, None)
            else:
                command.add_callback(step)

        self.call_soon(step, None)

    def run(self, until: Optional[float] = None) -> float:
        heap, delta = self._heap, self._delta
        while heap or delta:
            # A delta entry is next unless the heap head is due now and
            # was scheduled before it.
            if delta and not (heap and heap[0][0] == self.now
                              and heap[0][1] < delta[0][0]):
                if until is not None and self.now > until:
                    break
                _seq, fn, args = delta.popleft()
            else:
                if until is not None and heap[0][0] > until:
                    break
                self.now, _seq, fn, args = heappop(heap)
            fn(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now
