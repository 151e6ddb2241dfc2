"""Set-associative cache with MESI-style line states and LRU replacement.

The same structure models the host LLC (60 MB, 15-way), the device HMC
(128 KB, 4-way) and DMC (32 KB, direct-mapped).  State, not data, is the
primary payload: the coherence engines consult and mutate line states to
decide which timed actions an access incurs.

Storage is occupancy-sized: only sets holding at least one line exist,
created on first insert and dropped when they empty.  Construction,
memory and checkpoint payloads therefore scale with resident lines, not
with the modelled capacity (the LLC alone has 65,536 sets).  Walks
(``lines``, ``flush_all``) visit sets in ascending set index, so
writeback and callback order follow the set index, not insertion.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from types import MappingProxyType
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Mapping,
                    Optional, Tuple)

from repro.errors import CoherenceError, ConfigError
from repro.mem.address import line_base
from repro.mem.coherence import LineState
from repro.units import CACHELINE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.races import RaceDetector
    from repro.lint.sanitizer import CoherenceSanitizer

_LINE_MASK = ~(CACHELINE - 1)
# The one dirty state, for hot loops that test ``state is _DIRTY``
# rather than call the ``is_dirty`` property.
(_DIRTY,) = [state for state in LineState if state.is_dirty]
# Read-only stand-in for an absent set: lookups on it miss.
_NO_LINES: Mapping[int, "CacheLine"] = MappingProxyType({})


class CacheLine:
    """One resident cache line.

    ``poisoned`` models CXL data poison: the line's data is known-bad
    (an uncorrectable memory error travelled with the fill), and a
    consumer that reads it must observe a :class:`~repro.errors.PoisonError`.
    Poison rides the line through state transitions and evictions; only
    a full-line overwrite clears it (``scrub_poison``).

    ``state`` and ``poisoned`` are properties so an armed
    :class:`~repro.lint.sanitizer.CoherenceSanitizer` observes every
    transition, including direct assignments from the coherence engines;
    ``owner`` is the resident cache (None until installed/when disarmed).
    """

    __slots__ = ("addr", "owner", "_state", "_poisoned")

    def __init__(self, addr: int, state: LineState, poisoned: bool = False):
        if addr % CACHELINE:
            raise CoherenceError(f"line address misaligned: {hex(addr)}")
        if state is LineState.INVALID:
            raise CoherenceError("resident line cannot be INVALID")
        self.addr = addr
        self.owner: Optional["SetAssociativeCache"] = None
        self._state = state
        self._poisoned = poisoned

    @property
    def state(self) -> LineState:
        return self._state

    @state.setter
    def state(self, value: LineState) -> None:
        old, self._state = self._state, value
        owner = self.owner
        if owner is not None and owner.sanitizer is not None and old is not value:
            owner.sanitizer.on_state_set(owner, self, old, value)

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    @poisoned.setter
    def poisoned(self, value: bool) -> None:
        was, self._poisoned = self._poisoned, value
        owner = self.owner
        if owner is not None and owner.sanitizer is not None \
                and was and not value:
            owner.sanitizer.on_poison_cleared(owner, self, scrubbed=False)

    def scrub_poison(self) -> None:
        """Clear poison via a full-line overwrite (the legitimate path)."""
        self._poisoned = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = " poisoned" if self._poisoned else ""
        return f"CacheLine({hex(self.addr)}, {self._state.value}{flags})"


class SetAssociativeCache:
    """LRU set-associative cache keyed by line address.

    ``ways == 1`` gives a direct-mapped cache (the DMC).  Eviction of a
    MODIFIED line invokes ``writeback`` so owners can account the cost.
    """

    __slots__ = ("name", "size_bytes", "ways", "num_sets", "_sets",
                 "hits", "misses", "evictions", "writebacks",
                 "poison_sink", "poison_evictions", "poison_seen",
                 "sanitizer", "race_detector")

    def __init__(self, name: str, size_bytes: int, ways: int):
        if size_bytes <= 0 or ways <= 0:
            raise ConfigError(f"invalid cache geometry: {size_bytes}B {ways}-way")
        if size_bytes % (ways * CACHELINE):
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible into {ways}-way sets"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * CACHELINE)
        # Occupied sets only: set index -> OrderedDict line_addr ->
        # CacheLine in LRU order (least recent first).  A set is never
        # present empty.
        self._sets: dict[int, OrderedDict[int, CacheLine]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        # RAS: called with the victim address when a poisoned line leaves
        # the cache dirty, so poison propagates back to the memory image.
        self.poison_sink: Optional[Callable[[int], None]] = None
        self.poison_evictions = 0
        # Set once any line of this cache has been poisoned (only
        # ``poison_addr`` poisons a line), so a caller can skip a walk
        # for poisoned lines while it is False.
        self.poison_seen = False
        # Opt-in validation hooks (repro.lint): both stay None unless a
        # sanitizer watches this cache, costing one test per mutation.
        self.sanitizer: Optional["CoherenceSanitizer"] = None
        self.race_detector: Optional["RaceDetector"] = None

    def _note_mutation(self, base: int) -> None:
        if self.race_detector is not None:
            self.race_detector.mutate(("line", base))

    # -- geometry ----------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr // CACHELINE) % self.num_sets

    # -- queries -----------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Find the line containing ``addr``; update LRU order on hit."""
        base = addr & _LINE_MASK
        line_set = self._sets.get((addr // CACHELINE) % self.num_sets)
        line = None if line_set is None else line_set.get(base)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            line_set.move_to_end(base)
        return line

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Lookup without LRU or statistics side effects."""
        return self._sets.get((addr // CACHELINE) % self.num_sets,
                              _NO_LINES).get(addr & _LINE_MASK)

    def residency(self, addrs: Iterable[int]) -> Tuple[int, bool]:
        """How many of ``addrs`` are resident, and whether any resident
        one is poisoned: :meth:`peek` over many addresses, without LRU
        or statistics side effects."""
        sets, num_sets = self._sets, self.num_sets
        resident = 0
        poisoned = False
        for addr in addrs:
            line_set = sets.get((addr // CACHELINE) % num_sets)
            if line_set is not None:
                line = line_set.get(addr & _LINE_MASK)
                if line is not None:
                    resident += 1
                    poisoned = poisoned or line._poisoned
        return resident, poisoned

    def state_of(self, addr: int) -> LineState:
        line = self.peek(addr)
        return line.state if line else LineState.INVALID

    def __contains__(self, addr: int) -> bool:
        return self.peek(addr) is not None

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def lines(self) -> Iterator[CacheLine]:
        """Resident lines, by ascending set index then LRU order."""
        sets = self._sets
        return chain.from_iterable([sets[i].values() for i in sorted(sets)])

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    # -- mutation ----------------------------------------------------------

    def insert(
        self,
        addr: int,
        state: LineState,
        writeback: Optional[Callable[[int], None]] = None,
    ) -> Optional[CacheLine]:
        """Install (or update) a line; returns the victim if one was evicted.

        A MODIFIED victim triggers ``writeback(victim_addr)`` before the
        victim is returned.
        """
        if state is LineState.INVALID:
            raise CoherenceError("cannot insert a line in INVALID state")
        base = addr & _LINE_MASK
        self._note_mutation(base)
        index = (addr // CACHELINE) % self.num_sets
        line_set = self._sets.get(index)
        if line_set is None:
            line_set = self._sets[index] = OrderedDict()
        existing = line_set.get(base)
        if existing is not None:
            existing.state = state
            line_set.move_to_end(base)
            return None
        victim = None
        if len(line_set) >= self.ways:
            __, victim = line_set.popitem(last=False)  # LRU victim
            victim.owner = None
            self.evictions += 1
            if victim.state.is_dirty:
                self.writebacks += 1
                if self.sanitizer is not None:
                    self.sanitizer.on_dirty_evict(
                        self, victim, has_writeback=writeback is not None)
                if victim.poisoned:
                    self.poison_evictions += 1
                    if self.poison_sink is not None:
                        self.poison_sink(victim.addr)
                if writeback is not None:
                    writeback(victim.addr)
        line = CacheLine(base, state)
        line_set[base] = line
        if self.sanitizer is not None:
            line.owner = self
            self.sanitizer.on_insert(self, line)
        return victim

    def fill(
        self,
        addrs: Iterable[int],
        state: LineState,
        writeback: Optional[Callable[[int], None]] = None,
    ) -> None:
        """``for addr in addrs: self.insert(addr, state, writeback)``,
        for callers that read nothing between the inserts: the same
        sets, LRU order, counters, victims, poison-sink and writeback
        calls, in the same order, at a fraction of the per-line cost.
        An armed sanitizer or race detector sees each insert."""
        if self.sanitizer is not None or self.race_detector is not None:
            for addr in addrs:
                self.insert(addr, state, writeback)
            return
        if state is LineState.INVALID:
            raise CoherenceError("cannot insert a line in INVALID state")
        sets, num_sets, ways = self._sets, self.num_sets, self.ways
        new_line = CacheLine.__new__
        for addr in addrs:
            base = addr & _LINE_MASK
            index = (addr // CACHELINE) % num_sets
            line_set = sets.get(index)
            if line_set is None:
                line_set = sets[index] = OrderedDict()
            else:
                existing = line_set.get(base)
                if existing is not None:
                    existing._state = state
                    line_set.move_to_end(base)
                    continue
                if len(line_set) >= ways:
                    __, victim = line_set.popitem(last=False)
                    victim.owner = None
                    self.evictions += 1
                    if victim._state is _DIRTY:
                        self.writebacks += 1
                        if victim._poisoned:
                            self.poison_evictions += 1
                            if self.poison_sink is not None:
                                self.poison_sink(victim.addr)
                        if writeback is not None:
                            writeback(victim.addr)
            line = new_line(CacheLine)
            line.addr, line.owner = base, None
            line._state, line._poisoned = state, False
            line_set[base] = line

    def any_dirty_in_sets(self, addrs: Iterable[int]) -> bool:
        """Whether a set that one of ``addrs`` maps to holds a dirty or
        poisoned line: the lines filling ``addrs`` could evict."""
        sets, num_sets = self._sets, self.num_sets
        for index in dict.fromkeys((addr // CACHELINE) % num_sets
                                   for addr in addrs):
            for line in sets.get(index, _NO_LINES).values():
                if line._poisoned or line._state is _DIRTY:
                    return True
        return False

    def set_state(self, addr: int, state: LineState) -> None:
        """Transition a resident line's state; INVALID removes the line."""
        base = line_base(addr)
        self._note_mutation(base)
        index = self.set_index(addr)
        line_set = self._sets.get(index, _NO_LINES)
        line = line_set.get(base)
        if line is None:
            if state is LineState.INVALID:
                return  # invalidating an absent line is a no-op
            raise CoherenceError(
                f"{self.name}: state change on non-resident line {hex(base)}"
            )
        if state is LineState.INVALID:
            del line_set[base]
            if not line_set:
                del self._sets[index]
            line.owner = None
        else:
            line.state = state

    def poison_addr(self, addr: int) -> bool:
        """Mark the resident line covering ``addr`` as poisoned.

        Returns whether a line was resident (a miss is a no-op: the
        poison then lives in the backing memory image instead)."""
        line = self.peek(addr)
        if line is None:
            return False
        self._note_mutation(line_base(addr))
        line.poisoned = True
        self.poison_seen = True
        return True

    def clear_poison(self, addr: int) -> bool:
        """Clear poison on a resident line (full-line overwrite)."""
        line = self.peek(addr)
        if line is None or not line.poisoned:
            return False
        line.scrub_poison()
        return True

    def is_poisoned(self, addr: int) -> bool:
        line = self.peek(addr)
        return bool(line and line.poisoned)

    def invalidate(self, addr: int) -> bool:
        """Drop the line if resident.  Returns whether it was dirty (the
        caller owns any writeback decision on this path)."""
        base = line_base(addr)
        self._note_mutation(base)
        index = self.set_index(addr)
        line_set = self._sets.get(index)
        if line_set is None:
            return False
        line = line_set.pop(base, None)
        if line is None:
            return False
        if not line_set:
            del self._sets[index]
        line.owner = None
        return line.state.is_dirty

    def flush_all(self, writeback: Optional[Callable[[int], None]] = None) -> int:
        """Invalidate everything (CLFLUSH loop / device cache flush).

        Returns the number of dirty lines written back.
        """
        dirty = 0
        for line in self.lines():
            if line.state.is_dirty:
                dirty += 1
                if self.sanitizer is not None:
                    self.sanitizer.on_dirty_evict(
                        self, line, has_writeback=writeback is not None)
                if line.poisoned:
                    self.poison_evictions += 1
                    if self.poison_sink is not None:
                        self.poison_sink(line.addr)
                if writeback is not None:
                    writeback(line.addr)
            line.owner = None
        self._sets.clear()
        return dirty

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0
