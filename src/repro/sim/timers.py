"""Cancellable timers and timer counters for the event engine.

The engine (:mod:`repro.sim.engine`) files all future work under its
deadline: one FIFO bucket of ``(seq, fn, args)`` entries per pending
deadline, with a binary heap of the deadlines on top, beside its delta
deque for work due now.  Buckets fill in scheduling order, so the
structure *is* the engine's documented contract — equal timestamps
fire in scheduling order — with no sorting on top
(``tests/sim/test_engine_order.py`` replays the engine against the
plain ``(time, seq)`` heap loop in ``tests/sim/heap_oracle.py`` and
diffs the traces).

Cancellation (:meth:`Timer.cancel`) is O(1) and observationally lazy:
the result is as if the entry still popped at its ``(time, seq)`` slot
and :meth:`Timer._fire` skipped the user-visible trigger.  A cancel
notes the entry's seq and deadline in the engine's dead map: the
tombstone either pops through its slot (:meth:`Timer._fire` skips it)
or, once tombstones outnumber half the pending entries, one compaction
pass (:meth:`Simulator._reap <repro.sim.engine.Simulator._reap>`)
drops every dead entry at once.  The amortized cost per cancel is O(1)
because a pass only runs once the dead entries are a majority.  The
*dead horizon* keeps the clock honest: the latest deadline among
reaped tombstones is folded into the clock when an unbounded run
drains — exactly where the lazily popped tombstone would have left it
— so the ``(time, seq)`` trajectory of live work and the final ``now``
are those of a lazy drain (pinned in ``tests/sim``).
"""

from __future__ import annotations

from typing import Any

__all__ = ["Timer", "WheelStats", "WHEEL_STATS"]


class WheelStats:
    """Process-global timer counters (the e2e benchmark reads them per op).

    ``fired`` counts the entries taken off their deadline bucket when
    the clock reaches it, tombstones included; the run loop counts in a
    local and adds it here when it exits.  ``cascades`` is retired: it
    counted far-level cascades of the timer wheel the buckets replaced,
    and stays a slot that reads 0 for readers that still ask for it.
    The class keeps its ``Wheel`` name for the same readers.
    """

    __slots__ = ("fired", "cancelled", "cascades", "reaped", "reap_sweeps",
                 "dead_fired")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fired = 0
        self.cancelled = 0
        self.cascades = 0      # retired: always 0
        self.reaped = 0        # tombstones compacted out of their bucket
        self.reap_sweeps = 0   # compaction passes
        self.dead_fired = 0    # tombstones that popped through their slot

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def describe(self) -> dict:
        """:meth:`snapshot` plus the reconciled outstanding-tombstone
        count.  ``cancelled`` only ever increments (in
        :meth:`Timer.cancel`), so on its own it over-reports pending
        tombstones on long-running racks; every cancelled timer is
        eventually either *reaped* (compacted out) or *dead-fired*
        (popped through its slot), and the difference is what is still
        occupying the buckets."""
        out = self.snapshot()
        out["tombstones_pending"] = max(
            0, self.cancelled - self.reaped - self.dead_fired)
        return out


WHEEL_STATS = WheelStats()


class Timer:
    """A cancellable timer handle from :meth:`Simulator.timer`.

    ``event`` triggers with the timer's value at the deadline unless
    :meth:`cancel` ran first.  The handle carries its entry's seq and
    deadline, so cancel is O(1): it notes the tombstone for later
    compaction (one dict store plus a size check).  A timer due now
    carries seq 0 (no bucket entry); its cancelled entry pops from the
    delta queue and the trigger is simply skipped.

    The ``event`` itself is allocated lazily: timeout races that never
    fire — the whole reason this API exists — usually never wait on it
    either (``sim.any_of`` holds its own reference; watchdogs that are
    cancelled every period touch only the handle), so the common
    cancel-before-fire path allocates no Event at all.
    """

    __slots__ = ("_event", "cancelled", "_sim", "_seq", "_at")

    def __init__(self, event: Any = None, sim: Any = None, seq: int = 0,
                 at: float = 0.0) -> None:
        self._event = event
        self.cancelled = False
        self._sim = sim if sim is not None else getattr(event, "sim", None)
        self._seq = seq
        self._at = at

    @property
    def event(self) -> Any:
        """The completion event (created on first access)."""
        ev = self._event
        if ev is None:
            from repro.sim.engine import Event
            ev = self._event = Event(self._sim, name="timer")
        return ev

    def cancel(self) -> bool:
        """Stop the timer from triggering; returns False if it already
        fired (too late), True otherwise.  Idempotent."""
        ev = self._event
        if ev is not None and ev._triggered:
            return False
        if not self.cancelled:
            self.cancelled = True
            WHEEL_STATS.cancelled += 1
            if self._seq:
                # The entry would otherwise pop lazily at its (time,
                # seq); compaction drops it early and folds its deadline
                # into the dead horizon so an unbounded run ends at the
                # same clock reading.
                sim = self._sim
                dead = sim._dead
                dead[self._seq] = self._at
                if len(dead) * 2 > sim._count:
                    sim._reap()
        return True

    @property
    def active(self) -> bool:
        if self.cancelled:
            return False
        ev = self._event
        return ev is None or not ev._triggered

    def _fire(self, value: Any) -> None:
        if not self.cancelled:
            self.event.succeed(value)
        else:
            # A tombstone popped before any compaction reached it:
            # deregister it so a later pass cannot double-count.
            WHEEL_STATS.dead_fired += 1
            if self._seq:
                self._sim._dead.pop(self._seq, None)
