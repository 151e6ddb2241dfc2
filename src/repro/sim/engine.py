"""The discrete-event engine: simulator clock, events, and processes.

Hot-path design (see docs/PERFORMANCE.md): future work goes into one
FIFO bucket per pending deadline, with a binary heap of the deadlines
on top; work due now — every ``call_soon``, event trigger, and process
hand-off — bypasses them and lands on a FIFO *delta queue* drained at
the current timestamp.  Every entry carries a number from one monotone
sequence counter, a bucket fills in that order, and a bucket moves
whole onto the (then empty) delta queue when the clock reaches its
deadline, so the documented contract — *equal timestamps fire in
scheduling order* — holds by construction
(``tests/sim/test_engine_order.py`` replays the engine against a plain
``(time, seq)`` heap oracle).  Cancellable timers and the timer
counters live in :mod:`repro.sim.timers`.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Deque, Generator, Iterable, Optional

from collections import deque
from heapq import heapify as _heapify
from heapq import heappop as _heappop
from heapq import heappush as _heappush

from repro.errors import SimulationError
from repro.sim.timers import WHEEL_STATS, Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.races import RaceDetector

ProcessGen = Generator[Any, Any, Any]

# Triggered events hand their (cleared) callback lists back to the
# simulator for reuse; the cap bounds the memory kept across bursts.
_CB_POOL_MAX = 128

# Shared args tuple for the ubiquitous `fn(None)` resume entries.
_NONE_ARGS = (None,)


class Timeout:
    """Command yielded by a process to suspend for ``delay`` ns."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class WakeAt:
    """Command yielded by a process to suspend until the *absolute*
    simulated time ``at`` (ns).

    ``Timeout`` advances the clock by ``now + delay`` — one float
    addition chosen by the engine.  Bulk fast-forward paths
    (``docs/PERFORMANCE.md``) instead compute an end-of-train timestamp
    with exactly the same sequence of additions the per-line path would
    have performed, and need to land on *that* float bit-for-bit;
    ``WakeAt`` schedules at the precomputed absolute time with no
    further arithmetic.  ``at`` equal to the current time resumes via
    the delta queue; a past timestamp is an error.
    """

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = float(at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WakeAt({self.at!r})"


class _Failure:
    """Internal envelope carrying a failed event's exception to waiters."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it exactly
    once, delivering ``value`` to every waiter.  Waiting on an already
    triggered event resumes the waiter immediately (at the current time).

    Calling :meth:`fail` instead triggers the event *with an exception*:
    every process waiting at a ``yield`` has the exception thrown into it
    at that point, where ordinary ``try/except`` handles it.  A failure
    nobody waits on raises a :class:`SimulationError` diagnostic out of
    :meth:`Simulator.run` so injected faults can never vanish silently;
    :meth:`defuse` suppresses the diagnostic for callers that inspect
    :attr:`exc` out-of-band.

    Callback storage is adaptive: ``None`` (no waiter), a bare callable
    (exactly one waiter — the overwhelmingly common case), or a list
    recycled through the simulator's pool (multiple waiters).  Fire-and-
    forget and single-waiter events never allocate a list at all.
    """

    __slots__ = ("sim", "name", "_value", "_triggered", "_callbacks",
                 "_exc", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._triggered = False
        # None | a single callable | a pooled list of callables.
        self._callbacks: Any = None
        self._exc: Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def failed(self) -> bool:
        return self._triggered and self._exc is not None

    @property
    def exc(self) -> Optional[BaseException]:
        """The failure exception, or None for pending/succeeded events."""
        return self._exc

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            sim = self.sim
            if type(callbacks) is not list:
                # Single waiter: inlined call_soon (the hot path).
                if sim.race_detector is None:
                    sim._seq = seq = sim._seq + 1
                    sim._delta.append((seq, callbacks, (value,)))
                else:
                    sim.call_soon(callbacks, value)
            else:
                if sim.race_detector is None:
                    # Inline the call_soon loop: one shared seq bump per
                    # callback, straight onto the delta queue.
                    delta = sim._delta
                    seq = sim._seq
                    for cb in callbacks:
                        seq += 1
                        delta.append((seq, cb, (value,)))
                    sim._seq = seq
                else:
                    for cb in callbacks:
                        sim.call_soon(cb, value)
                callbacks.clear()
                pool = sim._cb_pool
                if len(pool) < _CB_POOL_MAX:
                    pool.append(callbacks)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with ``exc``; waiters have it thrown at their
        ``yield``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"Event.fail needs an exception, "
                                  f"got {exc!r}")
        self._triggered = True
        self._exc = exc
        callbacks = self._callbacks
        self._callbacks = None
        sim = self.sim
        if callbacks is None:
            # Nobody is waiting: raise a diagnostic unless a waiter (or a
            # defuse) arrives within the current delta-cycle.
            sim.call_soon(self._unhandled_check)
        elif type(callbacks) is not list:
            self._defused = True
            sim.call_soon(callbacks, _Failure(exc))
        else:
            self._defused = True
            failure = _Failure(exc)
            for cb in callbacks:
                sim.call_soon(cb, failure)
            callbacks.clear()
            pool = sim._cb_pool
            if len(pool) < _CB_POOL_MAX:
                pool.append(callbacks)
        return self

    def defuse(self) -> "Event":
        """Mark this event's (current or future) failure as handled
        out-of-band, suppressing the uncaught-failure diagnostic."""
        self._defused = True
        return self

    def _unhandled_check(self) -> None:
        if not self._defused:
            where = self.name or "event"
            raise SimulationError(
                f"uncaught failure in {where}: {self._exc!r}"
            ) from self._exc

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb(value)`` when (or immediately-soon if already)
        triggered."""
        if self._triggered:
            if self._exc is not None:
                self._defused = True
                self.sim.call_soon(cb, _Failure(self._exc))
            else:
                self.sim.call_soon(cb, self._value)
        else:
            callbacks = self._callbacks
            if callbacks is None:
                self._callbacks = cb          # first waiter: stored bare
            elif type(callbacks) is list:
                callbacks.append(cb)
            else:
                # Second waiter: promote to a (pooled) list.
                pool = self.sim._cb_pool
                promoted = pool.pop() if pool else []
                promoted.append(callbacks)
                promoted.append(cb)
                self._callbacks = promoted


class Process:
    """A running generator-based process.

    Created via :meth:`Simulator.spawn`.  A ``Process`` is itself waitable:
    yielding it from another process suspends the waiter until this process
    returns, delivering the return value.
    """

    __slots__ = ("sim", "name", "done", "_stack")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(sim, name=f"process {self.name!r}")
        # Explicit call stack of generators: yielding a generator pushes it,
        # StopIteration pops it and sends the return value to the caller.
        self._stack: list[ProcessGen] = [gen]

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def failed(self) -> bool:
        return self.done.failed

    @property
    def result(self) -> Any:
        """The return value; re-raises the exception for a failed process."""
        return self.done.value

    # -- driving ----------------------------------------------------------

    def _step(self, sent_value: Any) -> None:
        """Advance the top generator with ``sent_value`` and interpret the
        command it yields.  A :class:`_Failure` is thrown into the
        generator at its ``yield``; an exception the generator does not
        handle unwinds the explicit stack and ultimately fails
        :attr:`done` (failing the waiters of this process in turn)."""
        stack = self._stack
        while True:
            gen = stack[-1]
            try:
                if type(sent_value) is _Failure:
                    exc = sent_value.exc
                    sent_value = None
                    command = gen.throw(exc)
                else:
                    command = gen.send(sent_value)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    self.done.succeed(stop.value)
                    return
                sent_value = stop.value
                continue
            except Exception as exc:     # noqa: BLE001 - fault propagation
                stack.pop()
                if not stack:
                    self.done.fail(exc)
                    return
                sent_value = _Failure(exc)
                continue
            # Dispatch inline, hottest commands first: a Timeout is the
            # single most common yield across every model, a plain Event
            # the second; exact-type tests beat isinstance chains and the
            # slow path keeps subclasses working.  The Timeout push
            # (Simulator._push) is flattened right here, since process
            # timeouts dominate every model's schedule traffic.
            cls = command.__class__
            if cls is Timeout:
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                t = sim._now + command.delay
                if t != sim._now:
                    bucket = sim._due.get(t)
                    if bucket is None:
                        sim._due[t] = [(seq, self._step, _NONE_ARGS)]
                        _heappush(sim._times, t)
                    else:
                        bucket.append((seq, self._step, _NONE_ARGS))
                    sim._count += 1
                else:
                    sim._delta.append((seq, self._step, _NONE_ARGS))
                if sim.race_detector is not None:
                    sim.race_detector.note_schedule(seq, sim.current_task)
            elif cls is Event:
                command.add_callback(self._step)
            elif cls is WakeAt:
                self.sim.schedule_at(command.at, self._step, None)
            else:
                self._dispatch(command)
            return

    def _dispatch(self, command: Any) -> None:
        if type(command) is GeneratorType:
            self._stack.append(command)
            self.sim.call_soon(self._step, None)
        elif isinstance(command, Timeout):
            self.sim.schedule(command.delay, self._step, None)
        elif isinstance(command, Event):
            command.add_callback(self._step)
        elif isinstance(command, WakeAt):
            self.sim.schedule_at(command.at, self._step, None)
        elif isinstance(command, Process):
            command.done.add_callback(self._step)
        elif _is_generator(command):
            self._stack.append(command)
            self.sim.call_soon(self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command: "
                f"{command!r}"
            )


def _is_generator(obj: Any) -> bool:
    """Duck-typed fallback for generator-shaped objects that are not
    ``GeneratorType`` (e.g. instrumented wrappers); the common case is
    handled by the exact type check in :meth:`Process._dispatch`."""
    return hasattr(obj, "send") and hasattr(obj, "throw")


class Simulator:
    """Deterministic event loop.

    Events at equal timestamps fire in scheduling order.  Time is a float
    in nanoseconds and never decreases.

    Two queues carry the work: a heap of future deadlines, each with a
    FIFO bucket of the ``(seq, fn, args)`` entries due then, and a FIFO
    *delta queue* for callbacks at the current timestamp.  Every entry
    carries a globally monotone sequence number, so both are in
    ``(time, seq)`` order by construction and queue placement is
    invisible to the ordering contract.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # Future work: a heap of the pending deadlines (each > now), and
        # per deadline the entries due then, appended in seq order.
        self._times: list[float] = []
        self._due: dict[float, list[tuple[int, Callable[..., None], tuple]]] \
            = {}
        self._count = 0        # entries in the buckets, tombstones included
        # Tombstones (see repro.sim.timers): seq -> deadline of the
        # cancelled timers still in a bucket, and the latest deadline
        # among those compacted out — the clock reading their lazy pops
        # would have left behind.
        self._dead: dict[int, float] = {}
        self._dead_horizon = 0.0
        # Callbacks at the current time, FIFO in seq order.  Invariant:
        # entries are only drained at the timestamp they were appended
        # at — time cannot advance while the queue is non-empty.
        self._delta: Deque[tuple[int, Callable[..., None], tuple]] = deque()
        # Recycled Event callback lists (see Event.add_callback).
        self._cb_pool: list[list[Callable[[Any], None]]] = []
        # Sanitizer hooks (see repro.lint.races): when armed, the engine
        # feeds the detector one causal edge per scheduled callback and
        # exposes which task/process is currently executing.  Disarmed
        # (the default), the only cost is an `is None` test per schedule.
        self.race_detector: Optional["RaceDetector"] = None
        self.current_task = 0
        self.current_actor: Any = None

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- checkpointing ----------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Entries across both queues (buckets and delta).  Cancelled-
        timer tombstones count until they pop or are compacted out."""
        return self._count + len(self._delta)

    @property
    def quiescent(self) -> bool:
        """True when every queue has drained — the state :meth:`run`
        leaves behind (absent an ``until`` cutoff), and the state
        :meth:`checkpoint` wants: nothing pending means no live
        generator frames can be waiting in the queues."""
        return not self._times and not self._delta

    def checkpoint(self, root: Any = None, label: str = "") -> Any:
        """Snapshot ``root`` (default: this simulator alone) and
        everything reachable from it into an immutable, forkable
        :class:`~repro.sim.checkpoint.Checkpoint`.

        Pass the object graph that owns this simulator (a Platform, or
        a tuple of platform + workload objects) as ``root`` — restoring
        the checkpoint then yields an independent copy of the whole
        graph, clock and ``(time, seq)`` ordering preserved, ambient
        page-store/work-cache state included.  Raises
        :class:`~repro.errors.CheckpointError` if the graph holds live
        generator-based processes (run to quiescence first).
        """
        from repro.sim.checkpoint import snapshot
        return snapshot(self if root is None else root, label=label)

    @staticmethod
    def restore(cp: Any) -> Any:
        """Fork an independent copy of a checkpointed graph; see
        :meth:`~repro.sim.checkpoint.Checkpoint.restore`."""
        return cp.restore()

    # -- scheduling -------------------------------------------------------

    def _push(self, t: float, seq: int, fn: Callable[..., None],
              args: tuple) -> None:
        """File entry ``seq`` under the future deadline ``t`` (> now)."""
        bucket = self._due.get(t)
        if bucket is None:
            self._due[t] = [(seq, fn, args)]
            _heappush(self._times, t)
        else:
            bucket.append((seq, fn, args))
        self._count += 1

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq = seq = self._seq + 1
        t = self._now + delay
        if t == self._now:
            # Zero delay, or one below the clock's float resolution: the
            # entry is due now, after the work already queued for now.
            self._delta.append((seq, fn, args))
        else:
            self._push(t, seq, fn, args)
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)

    def schedule_at(self, at: float, fn: Callable[..., None],
                    *args: Any) -> None:
        """Run ``fn(*args)`` at the *absolute* simulated time ``at``.

        Unlike :meth:`schedule`, no ``now + delay`` addition is
        performed — the callback fires at exactly the float given, which
        is what the bulk fast-forward layer needs to reproduce per-line
        timestamps bit-for-bit.  ``at == now`` lands on the delta queue.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {at} < {self._now}")
        self._seq = seq = self._seq + 1
        if at == self._now:
            self._delta.append((seq, fn, args))
        else:
            self._push(at, seq, fn, args)
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)

    # Absolute-time scheduling under its conventional event-loop name.
    call_at = schedule_at

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after already queued
        same-time work."""
        self._seq = seq = self._seq + 1
        self._delta.append((seq, fn, args))
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout_event(self, delay: float, value: Any = None) -> Event:
        """An event that triggers ``delay`` ns from now."""
        ev = Event(self)
        # Inlined self.schedule(delay, ev.succeed, value): this is the
        # hottest constructor in the transfer models.
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq = seq = self._seq + 1
        t = self._now + delay
        if t == self._now:
            self._delta.append((seq, ev.succeed, (value,)))
        else:
            bucket = self._due.get(t)
            if bucket is None:
                self._due[t] = [(seq, ev.succeed, (value,))]
                _heappush(self._times, t)
            else:
                bucket.append((seq, ev.succeed, (value,)))
            self._count += 1
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)
        return ev

    def timer(self, delay: float, value: Any = None) -> Timer:
        """A *cancellable* timeout: returns a :class:`Timer` handle whose
        ``event`` triggers with ``value`` after ``delay`` ns unless
        :meth:`Timer.cancel` runs first.

        Cancel is O(1): the handle remembers its entry's seq and deadline
        and notes the tombstone for compaction (see :class:`Timer`).  The
        clock's trajectory — and every output byte — is the same as if
        the tombstone had popped at its slot without triggering.  Use
        this for timeout races that usually *don't* fire (doorbell
        completion waits, RAS watchdogs): the skipped trigger saves the
        dead event delivery that ``timeout_event`` would still pay.
        """
        t = self._now + delay
        if delay <= 0.0 or t == self._now:
            # A timer due now fires from the delta queue and carries
            # seq 0: it has no bucket entry to compact.
            handle = Timer(Event(self, name="timer"))
            self.schedule(delay, handle._fire, value)
            return handle
        self._seq = seq = self._seq + 1
        handle = Timer(None, self, seq, t)
        # Inlined self._push: watchdog churn is this call's whole use.
        bucket = self._due.get(t)
        if bucket is None:
            self._due[t] = [(seq, handle._fire, (value,))]
            _heappush(self._times, t)
        else:
            bucket.append((seq, handle._fire, (value,)))
        self._count += 1
        if self.race_detector is not None:
            self.race_detector.note_schedule(seq, self.current_task)
        return handle

    def _reap(self) -> int:
        """Compact every tombstone out of its bucket; returns the number
        removed.  Touches only the buckets that hold tombstones (plus a
        rebuild of the deadline heap when one empties) — amortized O(1)
        per cancel, because :meth:`Timer.cancel` only calls it once
        tombstones outnumber half the pending entries.  Works *in place*,
        since a run loop in progress holds the containers.  Tombstones
        already handed to the delta queue pop there lazily."""
        dead = self._dead
        if not dead:
            return 0
        due = self._due
        removed = 0
        emptied = False
        for t in dict.fromkeys(dead.values()):
            bucket = due.get(t)
            if bucket is None:
                continue
            kept = [entry for entry in bucket if entry[0] not in dead]
            if len(kept) == len(bucket):
                continue
            removed += len(bucket) - len(kept)
            if kept:
                bucket[:] = kept
            else:
                del due[t]
                emptied = True
        latest = max(dead.values())
        if latest > self._dead_horizon:
            self._dead_horizon = latest
        dead.clear()
        if not removed:
            return 0
        self._count -= removed
        if emptied:
            self._times[:] = due
            _heapify(self._times)
        stats = WHEEL_STATS
        stats.reaped += removed
        stats.reap_sweeps += 1
        return removed

    def horizon(self) -> float:
        """Earliest pending live timestamp, or ``+inf`` when idle.

        Pending work at the current time reads as ``now``.  Tombstones
        are compacted first, so a cancelled watchdog cannot pin the
        horizon and the reading is exact — the rack fast-forward
        eligibility check depends on this: a per-epoch heartbeat leaves
        one tombstone behind every window, and without the pass the rack
        could never look idle."""
        if self._delta:
            return self._now
        if self._dead:
            self._reap()
        times = self._times
        return times[0] if times else float("inf")

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a process; it takes its first step at the current time."""
        proc = Process(self, gen, name)
        self.call_soon(proc._step, None)
        return proc

    # -- running ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until both queues drain or ``until`` is reached.

        Returns the final simulated time.  When ``until`` is given, the
        clock is advanced exactly to ``until`` even if the last event fired
        earlier.

        Merge rule: delta work always goes first — every deadline in the
        heap lies in the future (an entry due now is appended to the
        delta queue instead).  Once the delta queue is empty the clock
        jumps to the earliest deadline and that deadline's bucket, whose
        entries were all scheduled before any work at its time, moves to
        the delta queue whole.  A bounded run stops before taking a
        bucket past ``until``, so nothing is ever handed back.
        """
        if until is not None and until < self._now:
            return self._now
        # Hot loop: queues bound locally, and the armed state is sampled
        # once — arm sanitizers *before* calling run() (every Platform
        # path does).  The disarmed loop carries no per-event
        # race-detector probe at all.  ``fired`` counts the entries taken
        # from the buckets locally and lands in WHEEL_STATS once, on the
        # way out.
        times = self._times
        due = self._due
        delta = self._delta
        fired = 0
        try:
            if self.race_detector is None:
                while True:
                    if delta:
                        entry = delta.popleft()
                        entry[1](*entry[2])
                    elif times:
                        t = times[0]
                        if until is not None and t > until:
                            break
                        _heappop(times)
                        bucket = due.pop(t)
                        self._count -= len(bucket)
                        fired += len(bucket)
                        self._now = t
                        delta.extend(bucket)
                    else:
                        break
            else:
                while True:
                    if delta:
                        seq, fn, args = delta.popleft()
                    elif times:
                        t = times[0]
                        if until is not None and t > until:
                            break
                        _heappop(times)
                        bucket = due.pop(t)
                        self._count -= len(bucket)
                        fired += len(bucket)
                        self._now = t
                        delta.extend(bucket)
                        continue
                    else:
                        break
                    self.current_task = seq
                    owner = getattr(fn, "__self__", None)
                    self.current_actor = owner if isinstance(owner, Process) \
                        else fn
                    fn(*args)
        finally:
            WHEEL_STATS.fired += fired
        if until is not None:
            if until > self._now:
                self._now = until
        elif self._dead_horizon > self._now:
            # Reaped tombstones would have popped (and advanced the
            # clock) before the queues drained; land on the same final
            # reading the lazy pops would have produced.
            self._now = self._dead_horizon
        return self._now

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation until it finishes, and return
        its result.  Raises if the queues drain first (deadlock), and
        re-raises the process's own exception if it failed."""
        proc = self.spawn(gen, name)
        # The caller reads `result` below, which re-raises failures, so
        # the in-loop uncaught-failure diagnostic would be redundant.
        proc.done.defuse()
        self.run()
        if not proc.finished:
            raise SimulationError(
                f"simulation deadlocked: process {proc.name!r} never finished"
            )
        return proc.result

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers once every input event has triggered,
        with the list of their values (input order preserved).

        If any input *fails*, the aggregate fails immediately with that
        exception (first failure wins; later outcomes are absorbed)."""
        events = list(events)
        done = Event(self, name="all_of")
        if not events:
            # Deferred trigger keeps "waiting on all_of([])" consistent
            # with the non-empty case (resume via the scheduling queue).
            self.call_soon(done.succeed, [])  # reprolint: disable=PERF401
            return done
        remaining = [len(events)]
        values: list[Any] = [None] * len(events)

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if done.triggered:
                    return                 # a sibling already failed it
                if type(value) is _Failure:
                    done.fail(value.exc)
                    return
                values[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers with ``(index, value)`` of the first
        input to trigger (useful for racing a completion against a
        timeout).  If the first outcome is a failure, the aggregate fails
        with it; later outcomes are absorbed either way."""
        events = list(events)
        if not events:
            raise SimulationError("any_of needs at least one event")
        done = Event(self, name="any_of")

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if done.triggered:
                    return
                if type(value) is _Failure:
                    done.fail(value.exc)
                    return
                done.succeed((i, value))

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done
