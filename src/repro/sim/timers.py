"""Hierarchical timer wheel for the event engine.

A binary heap serves arbitrary timestamp streams in O(log n) per
operation, but the simulator's timer traffic is heavily *clustered*:
doorbell timeouts, RAS reaping, retry backoff, and open-loop client
periods all land on a handful of distinct deadlines at any instant, most
of them near ``now``.  :class:`TimerWheel` exploits that shape with a
hierarchical calendar:

* **near level** — a dict keyed by *exact* float deadline holding FIFO
  buckets, plus a small heap of the distinct deadlines.  Scheduling a
  timer whose deadline already exists is one dict hit and a list
  append — amortised O(1) — and a bucket needs no sorting on drain
  because appends arrive in sequence order (time cannot advance into a
  deadline while inserts at that deadline are still possible; a sort
  only runs after a cascade merged two provenances, where timsort's
  sorted-run detection keeps it near-linear).
* **far levels** — coarse buckets of 2^12 / 2^20 / 2^28 ns spans keyed
  by ``deadline >> shift``, for timers beyond the 4096 ns near window
  (command timeouts, watchdogs).  A far bucket *cascades* toward the
  near level only when the clock approaches its span, so a long-lived
  timeout costs O(1) at schedule time and O(levels) total, not a heap
  reshuffle under every nearer event.
* **overflow** — a plain heap for deadlines ≥ 2^36 ns (~69 s) out;
  effectively cold.

Ordering is the engine's documented contract — *equal timestamps fire
in scheduling order*: a drained bucket carries exactly the entries of
one timestamp, sorted by their global sequence numbers, so the wheel
fires in plain ``(time, seq)`` order (``tests/sim/test_engine_order.py``
replays interleaved schedules against a heap oracle and diffs the
traces).

Cancellation (:meth:`Timer.cancel`) is O(1) and observationally lazy:
the result is as if the entry still popped at its ``(time, seq)`` slot
and :meth:`Timer._fire` skipped the user-visible trigger.  In practice
it is *reaped* instead of drained.  A cancellable timer is first staged
in the wheel's nursery, and a cancel that beats the flush deletes it
outright.  Otherwise the cancel is a set-add of the entry's
``(time, seq)`` key, and the structure is compacted on cold paths only:
when a cascade redistributes a far bucket its dead entries are dropped
instead of re-homed, and when the tombstone ratio exceeds 1/2 a full
sweep (:meth:`TimerWheel.reap`) removes every dead entry at once.  The
amortized cost per cancel is O(1) because a sweep only runs once the
dead entries are the majority of the structure.  The *dead horizon*
keeps the clock honest: the maximum deadline among reaped tombstones is
folded into the clock when an unbounded run drains — exactly where the
lazily-popped tombstone would have left it — so the ``(time, seq)``
trajectory of live work and the final ``now`` are those of a lazy drain
(pinned in ``tests/sim``).
"""

from __future__ import annotations

from heapq import heapify as _heapify, heappop, heappush
from typing import Any, Callable, Optional

__all__ = [
    "TimerWheel", "Timer", "WheelStats", "WHEEL_STATS",
    "NEAR_SPAN_NS", "LEVEL_SHIFTS",
]

# Deadlines closer than this (ns) go straight to the exact-time near
# level; one level-0 span of the classic 256-slot / 2^4-tick geometry.
NEAR_SPAN_NS = 4096.0
_NEAR_SPAN_TICKS = 4096

# Far-level spans: a level with shift ``s`` holds deadlines up to
# ``1 << (s + 8)`` ticks ahead in buckets ``1 << s`` ticks wide — the
# hierarchical-wheel geometry (256 buckets per level) without the fixed
# slot array: only occupied buckets exist.
LEVEL_SHIFTS = (12, 20, 28)


class WheelStats:
    """Process-global wheel counters (the e2e benchmark reads them per op).

    Everything is accounted on cold or amortised paths (refill,
    cascade, far insert, cancel) so the hot schedule path carries no
    counter traffic; ``scheduled`` is reconstructed as fired + live.
    """

    __slots__ = ("fired", "cancelled", "cascades", "far_inserts",
                 "overflow_inserts", "refills", "max_distinct_deadlines",
                 "reaped", "reap_sweeps", "dead_fired")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fired = 0
        self.cancelled = 0
        self.cascades = 0
        self.far_inserts = 0
        self.overflow_inserts = 0
        self.refills = 0
        self.max_distinct_deadlines = 0
        self.reaped = 0        # tombstones compacted out of a structure
        self.reap_sweeps = 0   # full-structure compaction passes
        self.dead_fired = 0    # tombstones that drained through a slot

    def snapshot(self) -> dict:
        return {
            "fired": self.fired,
            "cancelled": self.cancelled,
            "cascades": self.cascades,
            "far_inserts": self.far_inserts,
            "overflow_inserts": self.overflow_inserts,
            "refills": self.refills,
            "max_distinct_deadlines": self.max_distinct_deadlines,
            "reaped": self.reaped,
            "reap_sweeps": self.reap_sweeps,
            "dead_fired": self.dead_fired,
        }

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
    """The hierarchical calendar described in the module docstring.

    The engine's run loop and schedule fast paths touch ``near``,
    ``near_times``, ``count``, ``ready`` and ``ready_time`` directly —
    they are the hot interface, deliberately plain attributes.  Entries
    are ``(time, seq, fn, args)`` tuples, so tuple order is firing order.
    """

    __slots__ = ("near", "near_times", "levels", "overflow", "count",
                 "ready", "ready_time", "_far_next", "dead", "dead_horizon",
                 "nursery", "nursery_min")

    def __init__(self) -> None:
        # time -> [(time, seq, fn, args), ...] in insertion (= seq) order.
        self.near: dict = {}
        self.near_times: list = []       # heap of distinct near deadlines
        # [(shift, {bucket_id: [entry, ...]}, [bucket_id heap]), ...]
        self.levels = tuple((s, {}, []) for s in LEVEL_SHIFTS)
        self.overflow: list = []         # entry heap, deadlines >= 2^36 out
        self.count = 0                   # live entries not yet handed out
        self.ready: list = []            # current drained bucket, reversed
        self.ready_time = 0.0
        self._far_next = float("inf")    # lower bound on any far deadline
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
        self.nursery_min = float("inf")

    # -- scheduling (cold half; the near fast path is inlined in the
    # -- engine, mirrored by insert() below for non-inlined callers) ----

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
            self.count += 1
        else:
            self.insert_far(t, seq, fn, args, int(now))

    def insert_far(self, t: float, seq: int, fn: Callable[..., None],
                   args: tuple, base_tick: int) -> None:
        """Place a beyond-near-window deadline on its hierarchy level."""
        tick = int(t)
        d = tick - base_tick
        for shift, buckets, ids in self.levels:
            if not d >> (shift + 8):
                bucket_id = tick >> shift
                b = buckets.get(bucket_id)
                if b is None:
                    buckets[bucket_id] = [(t, seq, fn, args)]
                    heappush(ids, bucket_id)
                    bound = float(bucket_id << shift)
                    if bound < self._far_next:
                        self._far_next = bound
                else:
                    b.append((t, seq, fn, args))
                self.count += 1
                WHEEL_STATS.far_inserts += 1
                return
        heappush(self.overflow, (t, seq, fn, args))
        if t < self._far_next:
            self._far_next = t
        self.count += 1
        WHEEL_STATS.overflow_inserts += 1

    def flush_nursery(self, now: Optional[float] = None) -> None:
        """Move staged cancellable timers into the wheel proper.

        :meth:`refill` calls this whenever the bucket it is about to
        hand out lies at or past ``nursery_min`` — i.e. strictly before
        the wheel fires anything at or after a staged deadline — so
        staging is invisible to firing order.  With ``now`` the entries
        take the normal near/far routing; without it (bare test
        callers) each entry lands on the near level under its own
        window base, which is always correct, just heavier on
        ``near_times``.
        """
        nursery = self.nursery
        if not nursery:
            self.nursery_min = float("inf")
            return
        if now is None:
            for entry in nursery.values():
                self._place(entry, int(entry[0]) & ~(_NEAR_SPAN_TICKS - 1))
        else:
            near = self.near
            base = int(now)
            for entry in nursery.values():
                t = entry[0]
                if t - now < NEAR_SPAN_NS:
                    b = near.get(t)
                    if b is None:
                        near[t] = [entry]
                        heappush(self.near_times, t)
                    else:
                        b.append(entry)
                else:
                    # insert_far re-counts the entry; staging already did.
                    self.count -= 1
                    self.insert_far(t, entry[1], entry[2], entry[3], base)
        nursery.clear()
        self.nursery_min = float("inf")

    # -- draining -------------------------------------------------------

    def refill(self, now: Optional[float] = None) -> None:
        """Pop the earliest deadline bucket into ``ready``/``ready_time``.

        Call only with ``count > 0`` and ``ready`` empty.  Flushes the
        nursery whenever a staged deadline could be at or before the
        bucket about to be handed out, and cascades far buckets down
        whenever one could still contain an entry at (or before) the
        earliest near deadline — so the returned bucket provably holds
        *every* live entry of its timestamp, staged or not.
        """
        stats = WHEEL_STATS
        near_times = self.near_times
        nursery = self.nursery
        while True:
            if near_times:
                tmin = near_times[0]
                if nursery and self.nursery_min <= tmin:
                    self.flush_nursery(now)
                    continue
                if self._far_next <= tmin:
                    self._cascade_one()
                    continue
                t = heappop(near_times)
                bucket = self.near.pop(t)
                n = len(bucket)
                if n > 1:
                    # Appends arrive in seq order, so this is usually a
                    # no-op pass; a cascade may have interleaved two
                    # provenances, which timsort mends cheaply.
                    bucket.sort()
                    bucket.reverse()     # engine pops from the end
                self.ready = bucket
                self.ready_time = t
                self.count -= n
                stats.fired += n
                stats.refills += 1
                ndl = len(near_times)
                if ndl > stats.max_distinct_deadlines:
                    stats.max_distinct_deadlines = ndl
                return
            if not self.count:
                # A cascade reaped away the remaining tombstones: the
                # wheel is empty and ``ready`` stays empty — the run
                # loop re-checks ``count`` and stops cleanly.
                return
            if nursery and self.nursery_min <= self._far_next:
                # Near level dry and a staged deadline could precede
                # anything in the hierarchy (or everything live is
                # staged).
                self.flush_nursery(now)
                continue
            # Near level dry: everything live sits in the hierarchy.
            self._cascade_one()

    def _cascade_one(self) -> None:
        """Redistribute the earliest far bucket one level down."""
        best_level = None
        best_bound = float("inf")
        for level in self.levels:
            ids = level[2]
            if ids:
                bound = float(ids[0] << level[0])
                if bound < best_bound:
                    best_bound = bound
                    best_level = level
        overflow = self.overflow
        dead = self.dead
        if overflow and overflow[0][0] < best_bound:
            # Overflow cascades one entry at a time (cold by design).
            entry = heappop(overflow)
            if dead and (entry[0], entry[1]) in dead:
                self._drop_dead(entry)
            else:
                self._place(entry, int(entry[0]) & ~(_NEAR_SPAN_TICKS - 1))
        elif best_level is not None:
            shift, buckets, ids = best_level
            bucket_id = heappop(ids)
            # Route each entry relative to the bucket's own base so it
            # lands *strictly* below this level, never back onto it —
            # dead entries are dropped here instead of re-homed (the
            # cascade half of tombstone reaping).
            base = bucket_id << shift
            for entry in buckets.pop(bucket_id):
                if dead and (entry[0], entry[1]) in dead:
                    self._drop_dead(entry)
                else:
                    self._place(entry, base)
        else:  # pragma: no cover - refill precondition violated
            raise RuntimeError("cascade on an empty wheel")
        WHEEL_STATS.cascades += 1
        # Recompute the far lower bound from scratch (cold path).
        nxt = float("inf")
        for shift, _buckets, ids in self.levels:
            if ids:
                bound = float(ids[0] << shift)
                if bound < nxt:
                    nxt = bound
        if overflow and overflow[0][0] < nxt:
            nxt = overflow[0][0]
        self._far_next = nxt

    def unready(self) -> None:
        """Return a drained-but-unfired ``ready`` bucket to the near
        level.

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

    def _place(self, entry: tuple, base_tick: int) -> None:
        """Re-home a cascading entry relative to ``base_tick`` (no
        count/stat changes — the entry never left the wheel)."""
        t = entry[0]
        tick = int(t)
        d = tick - base_tick
        if d < _NEAR_SPAN_TICKS:
            near = self.near
            b = near.get(t)
            if b is None:
                near[t] = [entry]
                heappush(self.near_times, t)
            else:
                b.append(entry)
            return
        for shift, buckets, ids in self.levels:
            if not d >> (shift + 8):
                bucket_id = tick >> shift
                b = buckets.get(bucket_id)
                if b is None:
                    buckets[bucket_id] = [entry]
                    heappush(ids, bucket_id)
                else:
                    b.append(entry)
                return
        heappush(self.overflow, entry)

    # -- tombstone reaping ----------------------------------------------

    def _drop_dead(self, entry: tuple) -> None:
        """Discard one tombstoned entry leaving a structure (cascade
        path): deregister its key, refund the live count, and advance
        the dead horizon to where its lazy pop would have left the
        clock."""
        self.dead.discard((entry[0], entry[1]))
        self.count -= 1
        if entry[0] > self.dead_horizon:
            self.dead_horizon = entry[0]
        WHEEL_STATS.reaped += 1

    def reap(self) -> int:
        """Compact every tombstoned entry out of the wheel; returns the
        number removed.  O(live) — amortized O(1) per cancel because the
        engine only triggers it when tombstones outnumber live entries
        (ratio > 1/2).  Mutates ``near_times``/level id-heaps *in
        place* so locals captured by an in-progress run loop stay
        valid.  Entries parked in ``ready`` are left to drain lazily
        (they are already accounted as fired)."""
        dead = self.dead
        if not dead:
            return 0
        removed = 0
        horizon = self.dead_horizon
        # Scan order: far levels, overflow, then near — cancelled timers
        # are overwhelmingly long-dated watchdogs, so the (live-heavy)
        # near scan usually short-circuits on an already-empty dead set.
        for _shift, buckets, ids in self.levels:
            if not dead:
                break
            rebuilt = False
            for bucket_id in list(buckets):
                bucket = buckets[bucket_id]
                kept = []
                for entry in bucket:
                    if (entry[0], entry[1]) in dead:
                        dead.discard((entry[0], entry[1]))
                        removed += 1
                        if entry[0] > horizon:
                            horizon = entry[0]
                    else:
                        kept.append(entry)
                if len(kept) == len(bucket):
                    continue
                if kept:
                    buckets[bucket_id] = kept
                else:
                    del buckets[bucket_id]
                    rebuilt = True
            if rebuilt:
                ids[:] = list(buckets)
                _heapify(ids)
        if dead and self.overflow:
            kept = []
            for entry in self.overflow:
                if (entry[0], entry[1]) in dead:
                    dead.discard((entry[0], entry[1]))
                    removed += 1
                    if entry[0] > horizon:
                        horizon = entry[0]
                else:
                    kept.append(entry)
            if len(kept) != len(self.overflow):
                self.overflow[:] = kept
                _heapify(self.overflow)
        if dead:
            near = self.near
            rebuilt_near = False
            for t in list(near):
                bucket = near[t]
                kept = []
                for entry in bucket:
                    if (entry[0], entry[1]) in dead:
                        dead.discard((entry[0], entry[1]))
                        removed += 1
                        if entry[0] > horizon:
                            horizon = entry[0]
                    else:
                        kept.append(entry)
                if len(kept) == len(bucket):
                    continue
                if kept:
                    near[t] = kept
                else:
                    del near[t]
                    rebuilt_near = True
            if rebuilt_near:
                self.near_times[:] = list(near)
                _heapify(self.near_times)
        if not removed:
            return 0
        self.count -= removed
        self.dead_horizon = horizon
        # Recompute the far lower bound: reaping may have emptied the
        # bucket that anchored it (same cold-path recompute a cascade
        # does).
        nxt = float("inf")
        for shift, _buckets, ids in self.levels:
            if ids:
                bound = float(ids[0] << shift)
                if bound < nxt:
                    nxt = bound
        if self.overflow and self.overflow[0][0] < nxt:
            nxt = self.overflow[0][0]
        self._far_next = nxt
        stats = WHEEL_STATS
        stats.reaped += removed
        stats.reap_sweeps += 1
        return removed

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return self.count + len(self.ready)

    def entries(self):
        """Yield every live ``(time, seq, fn, args)`` entry — near
        buckets, far hierarchy, overflow, staged nursery, and the
        drained-but-unfired ``ready`` remainder — in no particular
        order.  Checkpoint diagnostics and tests use this; the run loop
        never does."""
        for bucket in self.near.values():
            yield from bucket
        for _shift, buckets, _ids in self.levels:
            for bucket in buckets.values():
                yield from bucket
        yield from self.overflow
        yield from self.nursery.values()
        yield from self.ready

    def snapshot(self) -> dict:
        """Structure occupancy (live entries; see WHEEL_STATS for
        cumulative counters)."""
        return {
            "live": len(self),
            "near_deadlines": len(self.near),
            "far_buckets": sum(len(level[1]) for level in self.levels),
            "overflow": len(self.overflow),
        }


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
