"""Timer wheel: structure, cancellation, and heap parity.

The wheel (repro.sim.timers) is a pure performance structure — its
contract is that no observable ordering changes against a plain heap.
These tests cover the wheel's own mechanics (near/far routing, the
same-deadline merge, nursery flushes, tombstones); the byte-for-byte
replay property against the heap oracle lives in
tests/sim/test_engine_order.py next to the ordering spec it extends.
"""

from __future__ import annotations

from repro.sim.engine import Simulator, Timeout
from repro.sim.timers import NEAR_SPAN_NS, WHEEL_STATS, TimerWheel
from tests.sim.heap_oracle import HeapOracle


# ---------------------------------------------------------------------------
# Wheel structure: routing, merging and flushing
# ---------------------------------------------------------------------------


def _drain(wheel):
    """Pop every entry in engine order: (time, seq) ascending."""
    out = []
    while len(wheel):
        if not wheel.ready:
            wheel.refill()
        while wheel.ready:
            e = wheel.ready.pop()
            out.append((e[0], e[1]))
    return out


def test_near_entries_drain_in_time_then_seq_order():
    wheel = TimerWheel()
    seq = 0
    for t in (8.0, 2.0, 8.0, 5.0, 2.0):
        seq += 1
        wheel.insert(t, seq, None, (), 0.0)
    assert _drain(wheel) == [(2.0, 2), (2.0, 5), (5.0, 4),
                             (8.0, 1), (8.0, 3)]


def test_near_and_far_route_at_the_span_boundary():
    """Deadlines less than ``NEAR_SPAN_NS`` out go to the near calendar;
    at the span and beyond they go to the far heap, relative to the
    ``now`` of the insert."""
    WHEEL_STATS.reset()
    wheel = TimerWheel()
    now = 1000.0
    wheel.insert(now + NEAR_SPAN_NS - 1.0, 1, None, (), now)
    wheel.insert(now + NEAR_SPAN_NS, 2, None, (), now)
    wheel.insert(now + 80e9, 3, None, (), now)
    assert list(wheel.near) == [now + NEAR_SPAN_NS - 1.0]
    assert sorted(e[1] for e in wheel.far) == [2, 3]
    assert WHEEL_STATS.far_inserts == 2
    assert _drain(wheel) == [(now + NEAR_SPAN_NS - 1.0, 1),
                             (now + NEAR_SPAN_NS, 2), (now + 80e9, 3)]


def test_near_and_far_entries_on_one_deadline_drain_in_seq_order():
    """The merge path: a far entry made early and near entries made
    later on the *same* float deadline come out as one bucket in seq
    order, with the far entries merged in wherever their seqs fall."""
    WHEEL_STATS.reset()
    wheel = TimerWheel()
    t = 5000.0
    wheel.insert(t, 1, None, (), 0.0)          # far: 5000 ns out
    wheel.insert(t, 3, None, (), 0.0)          # far
    wheel.insert(t, 2, None, (), 2000.0)       # near: 3000 ns out
    wheel.insert(t, 4, None, (), 2000.0)       # near
    wheel.insert(t + 1.0, 5, None, (), 0.0)    # far, next deadline
    assert len(wheel.near[t]) == 2 and len(wheel.far) == 3
    wheel.refill()
    assert wheel.ready_time == t
    assert [e[1] for e in reversed(wheel.ready)] == [1, 2, 3, 4]
    assert WHEEL_STATS.cascades == 1
    assert _drain(wheel) == [(t, 1), (t, 2), (t, 3), (t, 4), (t + 1.0, 5)]


def test_nursery_flush_lands_on_far():
    """Staged cancellable timers go to the far heap when a refill
    flushes them, whatever their distance, and still drain in (time,
    seq) order beside near entries."""
    WHEEL_STATS.reset()
    wheel = TimerWheel()
    for seq, t in ((1, 30.0), (2, 10.0)):
        wheel.nursery[(t, seq)] = (t, seq, None, ())
        wheel.count += 1
        wheel.nursery_min = min(wheel.nursery_min, t)
    wheel.insert(20.0, 3, None, (), 0.0)
    wheel.insert(10.0, 4, None, (), 0.0)
    wheel.refill()
    assert not wheel.nursery and wheel.nursery_min == float("inf")
    assert WHEEL_STATS.far_inserts == 2
    assert wheel.ready_time == 10.0
    assert [e[1] for e in reversed(wheel.ready)] == [2, 4]
    assert [e[1] for e in wheel.far] == [1]
    assert _drain(wheel) == [(10.0, 2), (10.0, 4), (20.0, 3), (30.0, 1)]


def test_same_deadline_appends_keep_fifo_without_sort():
    wheel = TimerWheel()
    t = 100.0
    for seq in range(1, 50):
        wheel.insert(t, seq, None, (), 0.0)
    assert _drain(wheel) == [(t, seq) for seq in range(1, 50)]


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
    """Wheel-side reaping vs the heap oracle's lazy tombstone pops."""
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
# Bounded runs: a refilled-but-unfired bucket must not wedge the wheel
# ---------------------------------------------------------------------------


def test_unready_rehomes_a_refilled_bucket():
    """refill() pops the earliest bucket into ``ready``; unready() must
    put it back so later, *earlier* inserts still drain first."""
    wheel = TimerWheel()
    wheel.insert(900.0, 1, None, (), 0.0)
    wheel.refill()
    assert wheel.ready and wheel.ready_time == 900.0
    wheel.unready()
    assert not wheel.ready and len(wheel) == 1
    wheel.insert(100.0, 2, None, (), 0.0)
    assert _drain(wheel) == [(100.0, 2), (900.0, 1)]


def test_bounded_run_does_not_wedge_later_earlier_timers():
    """Regression: ``run(until=X)`` breaking before a refilled bucket's
    deadline used to leave that bucket parked in ``ready`` — every
    timer scheduled afterwards at an earlier deadline sat behind it and
    never fired (the rack's per-epoch heartbeats hit exactly this)."""
    sim = Simulator()

    def sleeper(delay):
        yield Timeout(delay)

    far = sim.spawn(sleeper(6_080_000.0))
    # The bounded run refills the far bucket into ready, fires nothing.
    sim.run(until=0.0)
    assert not far.finished
    near = sim.spawn(sleeper(500.0))
    sim.run(until=1_000.0)
    assert near.finished, "near-deadline timer wedged behind a stale bucket"
    assert not far.finished
    sim.run()
    assert far.finished
