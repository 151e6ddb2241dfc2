"""Engine timers: deadline ordering, cancellation, and heap parity.

Future work sits in one FIFO bucket per deadline under a heap of the
deadlines (repro.sim.engine) — its contract is that no observable
ordering changes against a plain ``(time, seq)`` heap loop.  These
tests cover the timer mechanics (FIFO at one deadline, entries made at
different clocks on one deadline, delays below the clock's resolution,
tombstones, bounded runs); the byte-for-byte replay property against
the heap oracle lives in tests/sim/test_engine_order.py next to the
ordering spec it extends.
"""

from __future__ import annotations

from repro.sim.engine import Simulator, Timeout
from tests.sim.heap_oracle import HeapOracle


# ---------------------------------------------------------------------------
# Deadline order: time first, then scheduling order
# ---------------------------------------------------------------------------


def _tagger(sim, out):
    return lambda tag: out.append((sim.now, tag))


def test_near_entries_drain_in_time_then_seq_order():
    sim = Simulator()
    out = []
    tag = _tagger(sim, out)
    for seq, t in enumerate((8.0, 2.0, 8.0, 5.0, 2.0), start=1):
        sim.schedule(t, tag, seq)
    sim.run()
    assert out == [(2.0, 2), (2.0, 5), (5.0, 4), (8.0, 1), (8.0, 3)]


def test_near_and_far_entries_on_one_deadline_drain_in_seq_order():
    """Entries made at different clocks on the *same* float deadline —
    two 5000 ns out from t=0, two 3000 ns out from t=2000 — fire in seq
    order, the later ones after the earlier ones whatever their delay."""
    sim = Simulator()
    out = []
    tag = _tagger(sim, out)
    t = 5000.0
    sim.schedule(t, tag, 1)
    sim.schedule(t, tag, 3)
    sim.schedule(t + 1.0, tag, 5)
    sim.run(until=2000.0)
    sim.schedule(t - 2000.0, tag, 2)
    sim.schedule(t - 2000.0, tag, 4)
    sim.run()
    assert out == [(t, 1), (t, 3), (t, 2), (t, 4), (t + 1.0, 5)]


def test_same_deadline_appends_keep_fifo_without_sort():
    sim = Simulator()
    out = []
    tag = _tagger(sim, out)
    for seq in range(1, 50):
        sim.schedule(100.0, tag, seq)
    sim.run()
    assert out == [(100.0, seq) for seq in range(1, 50)]


def test_delay_below_clock_resolution_is_due_now_in_seq_order():
    """At a large clock a small positive delay rounds to ``now``.  Such
    an entry is due now, after the work already queued for now and
    before the work queued after it — through every schedule path —
    exactly as the heap oracle's ``(time, seq)`` order has it."""
    def drive(sim):
        out = []

        def proc():
            yield Timeout(2.0 ** 60)           # one ulp here is 256 ns
            sim.call_soon(out.append, "soon-1")
            sim.schedule(1.0, out.append, "schedule")
            sim.timeout_event(1.0, "timeout_event").add_callback(out.append)
            sim.timer(1.0, "timer").event.add_callback(out.append)
            sim.call_soon(out.append, "soon-2")
            yield Timeout(1.0)
            out.append(("resumed", sim.now))

        sim.spawn(proc())
        sim.run()
        return out, sim.now, sim._seq

    engine = drive(Simulator())
    assert engine == drive(HeapOracle())
    assert ("resumed", 2.0 ** 60) in engine[0]


# ---------------------------------------------------------------------------
# Timer handles: lazy cancellation
# ---------------------------------------------------------------------------


def test_cancelled_timer_never_fires():
    sim = Simulator()
    fired = []

    def waiter(watchdog):
        value = yield watchdog.event
        fired.append(value)

    def proc():
        watchdog = sim.timer(100.0, "bang")
        sim.spawn(waiter(watchdog))
        yield Timeout(10.0)
        assert watchdog.active
        assert watchdog.cancel()
        yield Timeout(500.0)

    sim.run_process(proc())
    assert fired == []
    assert sim.now == 510.0


def test_timer_fires_with_value_when_not_cancelled():
    sim = Simulator()

    def proc():
        watchdog = sim.timer(100.0, "bang")
        value = yield watchdog.event
        assert not watchdog.active
        assert not watchdog.cancel()      # too late: already fired
        return value

    assert sim.run_process(proc()) == "bang"


def test_cancelled_timer_still_advances_clock_identically():
    """Lazy cancel: the tombstone still pops at its deadline, so the
    clock trajectory is identical with and without the cancel — the
    property the byte-identity of experiment outputs rests on."""
    def trajectory(cancel):
        sim = Simulator()
        ticks = []

        def proc():
            watchdog = sim.timer(50.0)
            if cancel:
                watchdog.cancel()
            for _ in range(3):
                yield Timeout(40.0)
                ticks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        return ticks, sim.now

    assert trajectory(True) == trajectory(False)


def test_cancel_in_both_modes_is_equivalent():
    """Engine-side reaping vs the heap oracle's lazy tombstone pops."""
    def run(sim):
        out = []

        def guarded(tag, work_ns, timeout_ns):
            watchdog = sim.timer(timeout_ns, f"{tag}-timeout")
            index, value = yield sim.any_of(
                [sim.timeout_event(work_ns, f"{tag}-done"), watchdog.event])
            if index == 0:
                watchdog.cancel()
            out.append((sim.now, tag, value))

        sim.spawn(guarded("fast", 10.0, 1000.0))
        sim.spawn(guarded("slow", 5000.0, 1000.0))
        sim.spawn(guarded("tie", 1000.0, 1000.0))
        sim.run()
        return out, sim.now

    assert run(Simulator()) == run(HeapOracle())


# ---------------------------------------------------------------------------
# Bounded runs: an unfired future entry must not wedge earlier timers
# ---------------------------------------------------------------------------


def test_bounded_run_does_not_wedge_later_earlier_timers():
    """Regression: ``run(until=X)`` stopping before a future deadline
    once left that entry parked ahead of the queue — every timer
    scheduled afterwards at an earlier deadline sat behind it and never
    fired (the rack's per-epoch heartbeats hit exactly this).  The run
    now stops without taking anything past ``until``."""
    sim = Simulator()

    def sleeper(delay):
        yield Timeout(delay)

    far = sim.spawn(sleeper(6_080_000.0))
    # The bounded run reaches the far entry's head and fires nothing.
    sim.run(until=0.0)
    assert not far.finished
    near = sim.spawn(sleeper(500.0))
    sim.run(until=1_000.0)
    assert near.finished, "near-deadline timer wedged behind a later entry"
    assert not far.finished
    sim.run()
    assert far.finished
