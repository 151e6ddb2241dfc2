"""Timer wheel for the event engine: a near calendar plus a far heap.

The simulator's timer traffic has two shapes.  Process timeouts,
doorbell completions and retry backoff land on a handful of distinct
deadlines just ahead of ``now``, often the same float many times over.
Open-loop client periods, service times and command watchdogs sit
microseconds out, and almost every one has a deadline of its own.
:class:`TimerWheel` serves each shape with its own structure:

* **near calendar** — a dict keyed by *exact* float deadline holding
  FIFO buckets, plus a small heap of the distinct deadlines, for
  anything within ``NEAR_SPAN_NS`` (4096 ns).  Scheduling onto a
  deadline that already exists is one dict hit and a list append, and a
  bucket needs no sort on drain: appends arrive in sequence order,
  because time cannot advance into a deadline while inserts at that
  deadline are still possible.
* **far heap** — one binary heap of ``(time, seq, fn, args)`` entries
  for deadlines ``NEAR_SPAN_NS`` or more out.  A far timer costs one C
  ``heappush`` to arm and one ``heappop`` to fire.  Far deadlines are
  nearly all distinct, so bucketing them buys nothing.

A drain hands out the earlier of the two heads.  When both hold the
same float deadline, the far entries at that time (which pop in seq
order) join the near bucket and one sort restores seq order.

Ordering is the engine's documented contract — *equal timestamps fire
in scheduling order*: a drained bucket carries exactly the entries of
one timestamp, sorted by their global sequence numbers, so the wheel
fires in plain ``(time, seq)`` order (``tests/sim/test_engine_order.py``
replays interleaved schedules against a heap oracle and diffs the
traces).

Cancellation (:meth:`Timer.cancel`) is O(1) and observationally lazy:
the result is as if the entry still popped at its ``(time, seq)`` slot
and :meth:`Timer._fire` skipped the user-visible trigger.  A cancellable
timer is first staged in the wheel's nursery, and a cancel that beats
the flush deletes it outright.  Otherwise the cancel is a set-add of the
entry's ``(time, seq)`` key: the tombstone either drains through its
slot (:meth:`Timer._fire` skips it) or, once tombstones outnumber live
entries, a full sweep (:meth:`TimerWheel.reap`) removes every dead entry
at once.  The amortized cost per cancel is O(1) because a sweep only
runs once the dead entries are the majority of the structure.  The
*dead horizon* keeps the clock honest: the maximum deadline among reaped
tombstones is folded into the clock when an unbounded run drains —
exactly where the lazily-popped tombstone would have left it — so the
``(time, seq)`` trajectory of live work and the final ``now`` are those
of a lazy drain (pinned in ``tests/sim``).
"""

from __future__ import annotations

from heapq import heapify as _heapify, heappop, heappush
from typing import Any, Callable

__all__ = ["TimerWheel", "Timer", "WheelStats", "WHEEL_STATS", "NEAR_SPAN_NS"]

# Deadlines closer than this (ns) go to the exact-time near calendar;
# the rest go to the far heap.
NEAR_SPAN_NS = 4096.0

_INF = float("inf")


class WheelStats:
    """Process-global wheel counters (the e2e benchmark reads them per op).

    Everything except ``far_inserts`` is accounted on cold or amortised
    paths (refill, sweep, cancel), so the near schedule path carries no
    counter traffic; ``scheduled`` is reconstructed as fired + live.
    ``far_inserts`` counts every push onto the far heap, nursery flushes
    included.  ``cascades`` counts the refills that drained far-heap
    entries: one per far timestamp handed out, whether alone or merged
    with the near bucket of the same deadline.
    """

    __slots__ = ("fired", "cancelled", "cascades", "far_inserts", "refills",
                 "max_distinct_deadlines", "reaped", "reap_sweeps",
                 "dead_fired")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fired = 0
        self.cancelled = 0
        self.cascades = 0
        self.far_inserts = 0
        self.refills = 0
        self.max_distinct_deadlines = 0
        self.reaped = 0        # tombstones compacted out of a structure
        self.reap_sweeps = 0   # full-structure compaction passes
        self.dead_fired = 0    # tombstones that drained through a slot

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def describe(self) -> dict:
        """:meth:`snapshot` plus the reconciled outstanding-tombstone
        count.  ``cancelled`` only ever increments (in
        :meth:`Timer.cancel`), so on its own it over-reports pending
        tombstones on long-running racks; every cancelled timer is
        eventually either *reaped* (compacted out) or *dead-fired*
        (drained through its slot), and the difference is what is still
        occupying the structures."""
        out = self.snapshot()
        out["tombstones_pending"] = max(
            0, self.cancelled - self.reaped - self.dead_fired)
        return out


WHEEL_STATS = WheelStats()


class TimerWheel:
    """The near calendar and far heap described in the module docstring.

    The engine's run loop and schedule fast paths touch ``near``,
    ``near_times``, ``far``, ``count``, ``ready`` and ``ready_time``
    directly — they are the hot interface, deliberately plain
    attributes.  Entries are ``(time, seq, fn, args)`` tuples, so tuple
    order is firing order.
    """

    __slots__ = ("near", "near_times", "far", "count", "ready", "ready_time",
                 "dead", "dead_horizon", "nursery", "nursery_min")

    def __init__(self) -> None:
        # time -> [(time, seq, fn, args), ...] in insertion (= seq) order.
        self.near: dict = {}
        self.near_times: list = []       # heap of distinct near deadlines
        self.far: list = []              # entry heap, deadlines >= span out
        self.count = 0                   # live entries not yet handed out
        self.ready: list = []            # current drained bucket, reversed
        self.ready_time = 0.0
        # Tombstone bookkeeping (see module docstring): (time, seq) keys
        # of cancelled entries still occupying a slot, and the maximum
        # deadline among entries compacted *out* — the engine folds it
        # into the clock where the lazy pop would have left it.
        self.dead: set = set()
        self.dead_horizon = 0.0
        # Cancellable-timer staging area: (time, seq) -> entry.  Entries
        # rest here until a refill is about to hand out a bucket at or
        # past ``nursery_min`` (a lower bound; cancels leave it stale);
        # a cancel that beats that flush deletes the entry outright — no
        # insert, no tombstone, no sweep.  Watchdog races that almost
        # never fire (the whole point of Simulator.timer) thus cost two
        # dict ops total.
        self.nursery: dict = {}
        self.nursery_min = _INF

    # -- scheduling (cold half; the engine inlines the Timeout push) ----

    def insert(self, t: float, seq: int, fn: Callable[..., None],
               args: tuple, now: float) -> None:
        """Schedule ``fn(*args)`` at absolute deadline ``t`` (> now)."""
        if t - now < NEAR_SPAN_NS:
            near = self.near
            b = near.get(t)
            if b is None:
                near[t] = [(t, seq, fn, args)]
                heappush(self.near_times, t)
            else:
                b.append((t, seq, fn, args))
        else:
            heappush(self.far, (t, seq, fn, args))
            WHEEL_STATS.far_inserts += 1
        self.count += 1

    def flush_nursery(self) -> None:
        """Push staged cancellable timers onto the far heap.

        :meth:`refill` calls this whenever the bucket it is about to
        hand out lies at or past ``nursery_min`` — i.e. strictly before
        the wheel fires anything at or after a staged deadline — so
        staging is invisible to firing order.  Staging already counted
        the entries in ``count``.
        """
        nursery = self.nursery
        if nursery:
            far = self.far
            for entry in nursery.values():
                heappush(far, entry)
            WHEEL_STATS.far_inserts += len(nursery)
            nursery.clear()
        self.nursery_min = _INF

    # -- draining -------------------------------------------------------

    def refill(self) -> None:
        """Pop the earliest deadline bucket into ``ready``/``ready_time``.

        Call only with ``count > 0`` and ``ready`` empty.  Flushes the
        nursery first whenever a staged deadline could be at or before
        the earliest near or far deadline, and merges the far entries of
        the chosen timestamp into its near bucket — so the returned
        bucket holds *every* entry of its timestamp, staged or not.
        Tombstones are handed out like live entries; :meth:`Timer._fire`
        skips them.
        """
        near_times = self.near_times
        far = self.far
        if self.nursery:
            tmin = near_times[0] if near_times else _INF
            if far and far[0][0] < tmin:
                tmin = far[0][0]
            if self.nursery_min <= tmin:
                self.flush_nursery()
        stats = WHEEL_STATS
        if near_times and not (far and far[0][0] < near_times[0]):
            t = heappop(near_times)
            bucket = self.near.pop(t)
        else:
            t = far[0][0]
            bucket = []
        if far and far[0][0] == t:
            merge = bool(bucket)
            while far and far[0][0] == t:
                bucket.append(heappop(far))
            if merge:
                # Two seq-ordered runs: timsort merges them in one pass.
                bucket.sort()
            stats.cascades += 1
        n = len(bucket)
        if n > 1:
            bucket.reverse()             # engine pops from the end
        self.ready = bucket
        self.ready_time = t
        self.count -= n
        stats.fired += n
        stats.refills += 1
        ndl = len(near_times)
        if ndl > stats.max_distinct_deadlines:
            stats.max_distinct_deadlines = ndl

    def unready(self) -> None:
        """Return a drained-but-unfired ``ready`` bucket to the near
        calendar.

        ``Simulator.run(until=...)`` can stop *before* the popped
        bucket's timestamp.  Leaving the bucket parked in ``ready``
        would pin the wheel's notion of "earliest" at that future time,
        so timers inserted later at earlier deadlines (the next run's
        work) would sit behind it forever.  Re-homing the bucket — and
        refunding the refill's accounting — restores the invariant that
        ``ready`` is only ever the authoritative earliest bucket while a
        run loop is actively draining it.
        """
        bucket = self.ready
        if not bucket:
            return
        self.ready = []
        bucket.reverse()                 # back to ascending seq order
        t = self.ready_time
        existing = self.near.get(t)
        if existing is None:
            self.near[t] = bucket
            heappush(self.near_times, t)
        else:
            # Inserts at this exact deadline may have landed while the
            # bucket was out; merge and let the seq sort restore order.
            existing.extend(bucket)
            existing.sort()
        self.count += len(bucket)
        WHEEL_STATS.fired -= len(bucket)

    # -- tombstone reaping ----------------------------------------------

    def _sweep(self, entries: list) -> list:
        """``entries`` minus its tombstones; each one dropped is
        deregistered and its deadline folded into the dead horizon."""
        dead = self.dead
        kept = []
        for entry in entries:
            key = (entry[0], entry[1])
            if key in dead:
                dead.discard(key)
                if entry[0] > self.dead_horizon:
                    self.dead_horizon = entry[0]
            else:
                kept.append(entry)
        return kept

    def reap(self) -> int:
        """Compact every tombstoned entry out of the wheel; returns the
        number removed.  O(live) — amortized O(1) per cancel because the
        engine only triggers it when tombstones outnumber live entries
        (ratio > 1/2).  Mutates ``far`` and ``near_times`` *in place* so
        locals captured by an in-progress run loop stay valid.  Entries
        parked in ``ready`` are left to drain lazily (they are already
        accounted as fired)."""
        if not self.dead:
            return 0
        removed = 0
        # Far heap first: cancelled timers are overwhelmingly long-dated
        # watchdogs, so the (live-heavy) near scan usually
        # short-circuits on an already-empty dead set.
        far = self.far
        if far:
            kept = self._sweep(far)
            if len(kept) != len(far):
                removed += len(far) - len(kept)
                far[:] = kept
                _heapify(far)
        if self.dead:
            near = self.near
            rebuilt = False
            for t in list(near):
                bucket = near[t]
                kept = self._sweep(bucket)
                if len(kept) == len(bucket):
                    continue
                removed += len(bucket) - len(kept)
                if kept:
                    near[t] = kept
                else:
                    del near[t]
                    rebuilt = True
            if rebuilt:
                self.near_times[:] = list(near)
                _heapify(self.near_times)
        if not removed:
            return 0
        self.count -= removed
        stats = WHEEL_STATS
        stats.reaped += removed
        stats.reap_sweeps += 1
        return removed

    def __len__(self) -> int:
        return self.count + len(self.ready)


class Timer:
    """A cancellable timer handle from :meth:`Simulator.timer`.

    ``event`` triggers with the timer's value at the deadline unless
    :meth:`cancel` ran first.  The engine registers the entry's
    ``(time, seq)`` key on the handle, so cancel is O(1): it drops a
    still-staged entry from the nursery, or notes the tombstone for
    later compaction (one set-add plus a counter check).  A zero-delay
    timer carries no key; its cancelled entry pops at its slot and the
    trigger is simply skipped.

    The ``event`` itself is allocated lazily: timeout races that never
    fire — the whole reason this API exists — usually never wait on it
    either (``sim.any_of`` holds its own reference; watchdogs that are
    cancelled every period touch only the handle), so the common
    cancel-before-fire path allocates no Event at all.
    """

    __slots__ = ("_event", "cancelled", "_sim", "_key")

    def __init__(self, event: Any = None, sim: Any = None) -> None:
        self._event = event
        self.cancelled = False
        self._sim = sim if sim is not None else getattr(event, "sim", None)
        self._key = None

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
            key = self._key
            if key is not None:
                # Inlined tombstone note (the hot path the
                # timeouts_cancelled engine bench measures): register
                # the key and compact once tombstones outnumber live
                # entries.  The entry would otherwise pop lazily at its
                # (time, seq); reaping drops it early and folds the
                # skipped deadline into the wheel's phantom horizon so
                # an unbounded run ends at the same clock reading.
                wheel = self._sim._wheel
                if wheel.nursery.pop(key, None) is not None:
                    # Cancel beat the flush: the entry never reached the
                    # wheel.  Fold where its lazy pop would have left
                    # the clock and we are done.
                    wheel.count -= 1
                    if key[0] > wheel.dead_horizon:
                        wheel.dead_horizon = key[0]
                    WHEEL_STATS.reaped += 1
                else:
                    dead = wheel.dead
                    dead.add(key)
                    if len(dead) * 2 > wheel.count:
                        wheel.reap()
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
            # A tombstone popped lazily before any sweep reached it:
            # deregister the key so a later sweep cannot double-count.
            WHEEL_STATS.dead_fired += 1
            key = self._key
            if key is not None:
                self._sim._wheel.dead.discard(key)
