"""Timer reaping: equivalence + compaction.

Reaping cancelled timers must be observationally identical to a lazy
drain, where every tombstone pops at its slot and skips the trigger:
same fire order, same values, same final clock (the dead-horizon fold
stands in for the tombstone pop at the end of an unbounded run).  Two
lazy drains serve as references: the heap oracle in
tests/sim/heap_oracle.py, and the wheel itself with sweeps disabled so
wheel-resident tombstones pop at their slot.  On top of
the equivalence, these tests pin the mechanisms: nursery staging keeps
cancel-before-flush watchdogs out of the wheel entirely, ratio-
triggered sweeps compact what did get inserted, and ``WHEEL_STATS``
reconciles so ``tombstones_pending`` does not drift upward forever
(``cancelled`` alone over-reports outstanding timers on long racks).
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator, Timeout
from repro.sim.timers import WHEEL_STATS, TimerWheel
from tests.sim.heap_oracle import HeapOracle


def _watchdog_trajectory(sim):
    """The RAS shape: long watchdogs armed and cancelled every step,
    some allowed to fire; returns (tick trace, final clock).  Paced
    processes wait on a short timer beside the watchdog, which forces
    the nursery flush, so their cancels leave tombstones in the wheel
    proper rather than being absorbed while staged."""
    trace = []

    def proc(period, leak_every, paced):
        step = 0
        while step < 40:
            watchdog = sim.timer(period * 1000.0, f"bang-{step}")
            if paced:
                yield sim.timer(period).event
            else:
                yield Timeout(period)
            if leak_every and step % leak_every == 0:
                pass               # leaked: fires far in the future
            else:
                watchdog.cancel()
            trace.append((sim.now, watchdog.active))
            step += 1

    def absorber():
        # Give some leaked watchdogs a waiter so their values surface.
        watchdog = sim.timer(123_456.0, "late")
        value = yield watchdog.event
        trace.append((sim.now, value))

    for i in range(6):
        sim.spawn(proc(1.0 + i * 0.7, leak_every=7 if i % 2 else 0,
                       paced=i % 3 == 0))
    sim.spawn(absorber())
    sim.run()
    return trace, sim.now


@pytest.mark.parametrize("reference", ["heap", "wheel"])
def test_reap_is_observationally_identical(reference, monkeypatch):
    WHEEL_STATS.reset()
    reaped = _watchdog_trajectory(Simulator())
    assert WHEEL_STATS.reap_sweeps > 0
    if reference == "heap":
        lazy = _watchdog_trajectory(HeapOracle())
    else:
        monkeypatch.setattr(TimerWheel, "reap", lambda self: 0)
        WHEEL_STATS.reset()
        lazy = _watchdog_trajectory(Simulator())
        assert WHEEL_STATS.reap_sweeps == 0
        assert WHEEL_STATS.dead_fired > 0
    assert reaped == lazy


@pytest.mark.parametrize("staged", [True, False])
def test_cancel_all_still_advances_clock(staged):
    """Every timer cancelled: the dead-horizon fold must land the clock
    exactly where draining the tombstones would have — whether the
    cancels beat the nursery flush (``staged``) or hit entries already
    in the wheel, where they are swept as tombstones."""
    sim = Simulator()

    def proc():
        timers = [sim.timer(100.0 * (i + 1)) for i in range(32)]
        if staged:
            yield Timeout(5.0)
        else:
            yield timers[0].event      # refill flushed the nursery
        for timer in timers:
            timer.cancel()

    sim.spawn(proc())
    sim.run()
    assert sim.now == 3200.0


def test_nursery_absorbs_cancel_before_flush():
    """A watchdog cancelled before any refill needs its bucket never
    touches the far wheel: no insert, no tombstone, no sweep."""
    WHEEL_STATS.reset()
    sim = Simulator()

    def proc():
        for _ in range(200):
            watchdog = sim.timer(5_000_000.0)   # far-level deadline
            yield Timeout(1.0)
            watchdog.cancel()

    sim.spawn(proc())
    sim.run()
    stats = WHEEL_STATS.describe()
    assert stats["far_inserts"] == 0
    assert stats["reap_sweeps"] == 0
    assert stats["dead_fired"] == 0
    assert stats["cancelled"] == 200
    assert stats["tombstones_pending"] == 0


def test_stats_reconcile_after_sweep_of_far_tombstones():
    """The satellite fix: cancelled - reaped - dead_fired returns to
    zero once the structures are compacted, instead of reporting every
    historical cancel as still pending.

    Getting a tombstone *into* the wheel takes work by design (the
    nursery absorbs any cancel that beats the flush): stage one early
    timer next to many far ones, let the early deadline force the
    flush — dumping the far group into the wheel proper — and only
    then cancel.  The dead ratio trips a sweep, and ``describe()``
    reconciles back to zero pending."""
    WHEEL_STATS.reset()
    sim = Simulator()

    def proc():
        early = sim.timer(1_000.0)               # forces the flush
        far = [sim.timer(1_000_000.0 + i * 16.0) for i in range(64)]
        yield early.event                        # now the far group is
        for timer in far:                        # wheel-resident
            timer.cancel()

    sim.spawn(proc())
    sim.run()
    stats = WHEEL_STATS.describe()
    assert stats["cancelled"] == 64
    assert stats["far_inserts"] >= 64
    assert stats["reap_sweeps"] >= 1
    assert stats["reaped"] + stats["dead_fired"] == 64
    assert stats["tombstones_pending"] == 0
    # The dead-horizon fold still lands the clock on the last deadline.
    assert sim.now == 1_000_000.0 + 63 * 16.0


def test_horizon_sees_through_tombstones_and_nursery():
    """`Simulator.horizon()` (the rack fast-forward input) must report
    the next *live* deadline: staged nursery entries count, cancelled
    entries do not pin it."""
    sim = Simulator()

    def proc():
        early = sim.timer(50.0)
        sim.timer(400.0)
        yield Timeout(10.0)
        early.cancel()

    sim.spawn(proc())
    sim.run(until=20.0)
    # The cancelled 50.0 must not mask the live 400.0 (a stale-low
    # nursery bound is allowed — horizons are lower bounds — but a
    # reaped structure reports the live entry).
    assert sim.horizon() <= 400.0
    sim.run(until=60.0)
    assert 60.0 < sim.horizon() <= 400.0
    sim.run()
    assert sim.horizon() == float("inf")
