"""Timer reaping: equivalence + compaction.

Reaping cancelled timers must be observationally identical to a lazy
drain, where every tombstone pops at its slot and skips the trigger:
same fire order, same values, same final clock (the dead-horizon fold
stands in for the tombstone pop at the end of an unbounded run).  Two
lazy drains serve as references: the heap oracle in
tests/sim/heap_oracle.py, and the engine itself with compaction
disabled (the ``wheel`` parameter id, kept from the engine's earlier
timer structure) so every tombstone pops at its slot.  On top of the
equivalence, these tests pin the mechanisms: ratio-triggered passes
compact the buckets in place, even from inside a running ``run()``,
``pending_count`` counts tombstones until they leave their bucket, and
``WHEEL_STATS`` reconciles so ``tombstones_pending`` does not drift
upward forever (``cancelled`` alone over-reports outstanding timers on
long racks).
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator, Timeout
from repro.sim.timers import WHEEL_STATS
from tests.sim.heap_oracle import HeapOracle


def _watchdog_trajectory(sim):
    """The RAS shape: long watchdogs armed and cancelled every step,
    some allowed to fire; returns (tick trace, final clock).  Paced
    processes wait on a short timer beside the watchdog, so timer pops
    and tombstones interleave on the heap."""
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
        monkeypatch.setattr(Simulator, "_reap", lambda self: 0)
        WHEEL_STATS.reset()
        lazy = _watchdog_trajectory(Simulator())
        assert WHEEL_STATS.reap_sweeps == 0
        assert WHEEL_STATS.dead_fired > 0
    assert reaped == lazy


@pytest.mark.parametrize("staged", [True, False])
def test_cancel_all_still_advances_clock(staged):
    """Every timer cancelled: the dead-horizon fold must land the clock
    exactly where draining the tombstones would have — whether the
    cancels come before any timer popped (``staged``) or after the
    first one fired."""
    sim = Simulator()

    def proc():
        timers = [sim.timer(100.0 * (i + 1)) for i in range(32)]
        if staged:
            yield Timeout(5.0)
        else:
            yield timers[0].event      # the first timer fired
        for timer in timers:
            timer.cancel()

    sim.spawn(proc())
    sim.run()
    assert sim.now == 3200.0


def test_stats_reconcile_after_sweep_of_far_tombstones():
    """cancelled - reaped - dead_fired returns to zero once the heap is
    compacted, instead of reporting every historical cancel as still
    pending: one early timer fires, then 64 far ones are cancelled, the
    dead ratio trips a pass, and ``describe()`` reconciles back to zero
    pending."""
    WHEEL_STATS.reset()
    sim = Simulator()

    def proc():
        early = sim.timer(1_000.0)
        far = [sim.timer(1_000_000.0 + i * 16.0) for i in range(64)]
        yield early.event
        for timer in far:
            timer.cancel()

    sim.spawn(proc())
    sim.run()
    stats = WHEEL_STATS.describe()
    assert stats["cancelled"] == 64
    assert stats["reap_sweeps"] >= 1
    assert stats["reaped"] + stats["dead_fired"] == 64
    assert stats["tombstones_pending"] == 0
    # The dead-horizon fold still lands the clock on the last deadline.
    assert sim.now == 1_000_000.0 + 63 * 16.0


def test_horizon_sees_through_tombstones():
    """`Simulator.horizon()` (the rack fast-forward input) must report
    the next *live* deadline exactly: cancelled entries do not pin it."""
    sim = Simulator()

    def proc():
        early = sim.timer(50.0)
        sim.timer(400.0)
        yield Timeout(10.0)
        early.cancel()

    sim.spawn(proc())
    sim.run(until=20.0)
    # The cancelled 50.0 must not mask the live 400.0.
    assert sim.horizon() == 400.0
    sim.run(until=60.0)
    assert sim.horizon() == 400.0
    sim.run()
    assert sim.horizon() == float("inf")


def test_cancel_storm_inside_run_compacts_in_place():
    """A cancel storm from inside a running ``run()`` trips compaction
    while the run loop holds the deadline heap and the bucket map: the
    pass must rewrite those same containers, and the trace must still
    match the lazy heap oracle."""
    def storm(sim):
        trace = []

        def proc():
            timers = [sim.timer(10_000.0 + i, i) for i in range(40)]
            sim.timer(500.0, "live")
            yield Timeout(100.0)
            engine = isinstance(sim, Simulator)
            if engine:
                times, due = sim._times, sim._due
            for timer in timers[:30]:
                timer.cancel()
            if engine:
                # Compacted in place: emptied deadlines left both.
                assert sim._times is times and sim._due is due
                assert len(times) == len(due) < 41
            value = yield timers[35].event
            trace.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        return trace, sim.now, sim._seq

    WHEEL_STATS.reset()
    assert storm(Simulator()) == storm(HeapOracle())
    assert WHEEL_STATS.reap_sweeps >= 1
    assert WHEEL_STATS.reaped >= 21


def test_pending_count_counts_tombstones_until_they_leave():
    """A cancelled timer stays in ``pending_count`` until it pops
    through its slot or a compaction pass reaps it."""
    sim = Simulator()
    timers = [sim.timer(100.0 * (i + 1)) for i in range(4)]
    assert sim.pending_count == 4
    timers[0].cancel()                 # 1 dead of 4: no pass yet
    assert sim.pending_count == 4
    sim.run(until=150.0)               # the tombstone pops at its slot
    assert sim.pending_count == 3
    timers[1].cancel()                 # 1 dead of 3: still no pass
    assert sim.pending_count == 3
    timers[2].cancel()                 # 2 dead of 3: the pass reaps both
    assert sim.pending_count == 1
    sim.run()
    assert sim.pending_count == 0
    assert sim.now == 400.0
