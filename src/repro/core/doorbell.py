"""The shared-memory doorbell protocol of Fig 7 (steps 1 and 5).

cxl-zswap/ksm communicate without interrupts or descriptor rings:

* **submit (step 1)**: the host writes the command (source/destination
  addresses) into a shared region *in device memory* using nt-st — posted
  writes that neither pollute host cache nor stall the core;
* **poll**: the device ACC spins on the shared region with D2D CS-read,
  which hits the DMC (fast) while the region is unchanged, because
  CS-read keeps the line cached in shared state;
* **complete (step 5)**: the device pushes the result line back — D2D
  NC-write into the shared region for zswap (the host wakes and reads
  it), or D2H NC-P straight into the host LLC for ksm.

The host's entire per-command CPU cost is a handful of nt-st and one
ld — the ~20-50 LoC / near-zero-cycle story of SVII.

An offload handler drives a command through :meth:`Doorbell.open`
(submit, then the device's poll) and :meth:`Doorbell.close` (the result
push, then the host's completion read).  A command that starts on a
quiescent simulator replays both halves as arithmetic
(:func:`repro.core.fastpath.try_command_head` and ``try_command_tail``),
bit-exact to the per-line steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Set, Tuple

from repro.core import fastpath
from repro.core.platform import Platform
from repro.core.requests import D2HOp, HostOp
from repro.errors import OffloadError, OffloadTimeoutError
from repro.sim.engine import Event, WakeAt
from repro.sim.resources import Pipe
from repro.units import CACHELINE, kib

COMMAND_LINES = 2   # src addr, dst addr, sizes, opcode: fits in 2 lines


@dataclass
class Command:
    """One offload command carried through the shared region."""

    opcode: str
    src_addr: int = 0
    dst_addr: int = 0
    nbytes: int = 0
    payload: Any = None         # functional payload (page bytes, ...)
    tag: int = 0


@dataclass
class Completion:
    """The device's result line."""

    tag: int
    status: str = "ok"
    result: Any = None
    out_bytes: int = 0


class Doorbell:
    """One shared-memory command/completion channel."""

    def __init__(self, platform: Platform, name: str = "doorbell"):
        self.p = platform
        self.name = name
        region = platform.t2.carve_region(f"{name}-region", kib(4))
        self._cmd_lines = [region.base + i * CACHELINE
                           for i in range(COMMAND_LINES)]
        self._result_line = region.base + COMMAND_LINES * CACHELINE
        # Functional mailboxes (the timed protocol gates their visibility).
        self._commands: Pipe = Pipe(platform.sim, f"{name}.cmd")
        self._completions: Pipe = Pipe(platform.sim, f"{name}.cpl")
        self._next_tag = 1
        self.submitted = 0
        self.completed = 0
        # Robustness bookkeeping: every live tag, its submit time, and a
        # per-tag event the robust host path can race against a timeout.
        self.inflight: Dict[int, float] = {}
        self._cpl_events: Dict[int, Event] = {}
        self._orphans: Set[int] = set()
        self.orphaned = 0
        self.late_completions = 0
        # Tags whose submit and poll ran as a command train: their
        # completion half may train too.
        self._trained: Set[int] = set()

    @property
    def queue_depth(self) -> int:
        """Commands submitted but not yet completed or reaped — the
        backlog signal the resilience layer's admission control reads."""
        return len(self.inflight)

    # -- host side -------------------------------------------------------------

    def submit(self, command: Command) -> Generator[Any, Any, int]:
        """Timed host-side submit: nt-st the command lines (step 1).

        Returns the command's tag.  Host cost is only the posted stores.
        """
        command.tag = self._next_tag
        self._next_tag += 1
        core, t2 = self.p.core, self.p.t2
        for addr in self._cmd_lines:
            yield from core.cxl_op(HostOp.NT_STORE, addr, t2)
        self._commands.put(command)
        self._posted(command.tag, self.p.sim.now)
        return command.tag

    def _posted(self, tag: int, at: float) -> None:
        """The submit of ``tag`` retired at ``at``: it is in flight."""
        self.submitted += 1
        self.inflight[tag] = at
        self._cpl_events[tag] = Event(self.p.sim,
                                      name=f"{self.name}.cpl[{tag}]")

    def open(self, command: Command) -> Generator[Any, Any,
                                                  Tuple[Command, float]]:
        """A handler's steps 1-2: :meth:`submit` ``command``, then the
        device's :meth:`device_poll` picks it up.  Returns the command
        and the submit's host cost (ns)."""
        sim = self.p.sim
        t0 = sim.now
        times = fastpath.try_command_head(self.p, self)
        if times is None:
            tag = yield from self.submit(command)
            host_ns = sim.now - t0
            return (yield from self.device_poll(tag)), host_ns
        submitted, polled = times
        command.tag = self._next_tag
        self._next_tag += 1
        self._posted(command.tag, submitted)
        self._trained.add(command.tag)
        yield WakeAt(polled)
        return command, submitted - t0

    def close(self, completion: Completion,
              push_to_llc: bool) -> Generator[Any, Any, Tuple[float, float]]:
        """A handler's step 5 and host wake-up: :meth:`device_complete`,
        then the host reads the completion.  Returns the device push's
        and the host read's durations (ns)."""
        sim = self.p.sim
        t1 = sim.now
        times = None
        if completion.tag in self._trained:
            self._trained.discard(completion.tag)
            times = fastpath.try_command_tail(self.p, self, completion.tag,
                                              push_to_llc)
        if times is None:
            yield from self.device_complete(completion, push_to_llc)
            t = sim.now
            yield from (self.read_completion_from_llc() if push_to_llc
                        else self.read_completion())
            return t - t1, sim.now - t
        completed, read = times
        self._deliver(completion)
        __, completion = self._completions.try_get()
        self._retire(completion)
        yield WakeAt(read)
        return completed - t1, read - completed

    def read_completion(self) -> Generator[Any, Any, Completion]:
        """Timed host-side completion read: one ld of the result line.

        For zswap the result line lives in device memory; kswapd has slept
        through the device work, so the wake-up read is a single H2D ld.
        """
        core, t2 = self.p.core, self.p.t2
        yield from core.cxl_op(HostOp.LOAD, self._result_line, t2)
        got, completion = self._completions.try_get()
        if not got:
            raise OffloadError("completion read before device finished")
        self._retire(completion)
        return completion

    def read_completion_from_llc(self) -> Generator[Any, Any, Completion]:
        """Timed host-side completion read when the device NC-P'd the
        result into host LLC (the ksm flow): a local LLC load."""
        yield from self.p.core.llc_load(self._result_line, self.p.home)
        got, completion = self._completions.try_get()
        if not got:
            raise OffloadError("completion read before device finished")
        self._retire(completion)
        return completion

    def _retire(self, completion: Completion) -> None:
        """Host observed this completion: close out its tag."""
        self.inflight.pop(completion.tag, None)
        ev = self._cpl_events.pop(completion.tag, None)
        if ev is not None and not ev.triggered:
            ev.succeed(completion)
        self.completed += 1

    def await_completion(self, tag: int,
                         timeout_ns: float) -> Generator[Any, Any, Completion]:
        """Robust host-side completion wait: race the tag's completion
        against ``timeout_ns``.

        On completion, pays the same single result-line load as
        :meth:`read_completion` and returns the completion.  On timeout,
        reaps the tag (any completion that later arrives for it is
        counted and dropped) and raises :class:`OffloadTimeoutError`.

        The watchdog is a cancellable :meth:`Simulator.timer`: in the
        common case — the device answers — the timer is tombstoned in
        O(1) and its dead trigger never runs, instead of every completed
        command leaving a live timeout to fire into a stale ``any_of``.
        """
        ev = self._cpl_events.get(tag)
        if ev is None:
            raise OffloadError(f"await_completion on unknown tag {tag}")
        sim = self.p.sim
        watchdog = sim.timer(timeout_ns)
        index, value = yield sim.any_of([ev, watchdog.event])
        if index == 1:      # the timer won: the device hung or dropped it
            waited = sim.now - self.inflight.get(tag, sim.now)
            self.reap_tag(tag)
            raise OffloadTimeoutError(
                f"{self.name}: tag {tag} timed out after {timeout_ns:g} ns"
                f" (waited {waited:g} ns)")
        watchdog.cancel()
        completion: Completion = value
        core, t2 = self.p.core, self.p.t2
        yield from core.cxl_op(HostOp.LOAD, self._result_line, t2)
        self._completions.remove_where(lambda c: c.tag == tag)
        self.inflight.pop(tag, None)
        self._cpl_events.pop(tag, None)
        self.completed += 1
        return completion

    def reap_tag(self, tag: int) -> None:
        """Abandon an in-flight tag: forget its bookkeeping, drop its
        command if the device never consumed it, and mark it orphaned so
        a late completion is discarded instead of being mis-delivered."""
        self.inflight.pop(tag, None)
        self._cpl_events.pop(tag, None)
        self._commands.remove_where(lambda c: c.tag == tag)
        self._orphans.add(tag)
        self.orphaned += 1

    # -- device side -------------------------------------------------------------

    def device_poll(self,
                    tag: Optional[int] = None) -> Generator[Any, Any, Command]:
        """Timed device-side poll: CS-read the command lines until a
        command is visible, then return it.

        CS-read keeps the lines in DMC, so an idle poll iteration costs
        only a DMC hit (SVI-A explains choosing CS-read over NC-read).
        A handler that submitted command ``tag`` itself passes it, and
        the poll serves exactly that command, never another handler's
        that happens to be queued first.
        """
        lsu = self.p.t2.lsu
        while True:
            for addr in self._cmd_lines:
                yield from lsu.d2d(D2HOp.CS_READ, addr)
            if tag is not None:
                mine = self._commands.remove_where(lambda c: c.tag == tag)
                if not mine:
                    raise OffloadError(
                        f"{self.name}: tag {tag} is not queued")
                return mine[0]
            got, command = self._commands.try_get()
            if got:
                return command
            # Nothing yet: block until a submit lands (the timed CS-read
            # of the refreshed lines happens on the next loop turn).
            ev = self._commands.get()
            yield ev
            self._commands.put(ev.value)

    def device_complete(self, completion: Completion,
                        push_to_llc: bool) -> Generator[Any, Any, None]:
        """Timed device-side completion (step 5): NC-write the result line
        to device memory, or NC-P it into the host LLC."""
        lsu = self.p.t2.lsu
        if push_to_llc:
            yield from lsu.d2h(D2HOp.NC_P, self._result_line)
        else:
            yield from lsu.d2d(D2HOp.NC_WRITE, self._result_line)
        if completion.tag in self._orphans:
            # The host gave up on this tag: the write happened (paid for
            # above) but nobody will ever read it — drop it so a later
            # command cannot be handed a stale result.
            self._orphans.discard(completion.tag)
            self.late_completions += 1
            return
        self._deliver(completion)

    def _deliver(self, completion: Completion) -> None:
        """The result line landed: make the completion visible."""
        self._completions.put(completion)
        ev = self._cpl_events.get(completion.tag)
        if ev is not None and not ev.triggered:
            ev.succeed(completion)
