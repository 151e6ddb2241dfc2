"""Dense reference cache: one ``OrderedDict`` per set, all built up front.

This is the straightforward list-of-sets layout the occupancy-sized
:class:`~repro.mem.cache.SetAssociativeCache` must match operation for
operation.  It models no sanitizer or race-detector hooks; the
differential test in ``test_cache_oracle.py`` drives both side by side.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.errors import CoherenceError
from repro.mem.cache import CacheLine
from repro.mem.coherence import LineState
from repro.units import CACHELINE


class DenseCache:
    def __init__(self, size_bytes: int, ways: int):
        self.ways = ways
        self.num_sets = size_bytes // (ways * CACHELINE)
        # The dense layout is the point of the oracle.
        self._sets = [  # reprolint: disable=PERF407
            OrderedDict() for __ in range(self.num_sets)]
        self.hits = self.misses = self.evictions = self.writebacks = 0
        self.poison_sink: Optional[Callable[[int], None]] = None
        self.poison_evictions = 0

    def _set_for(self, addr: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[(addr // CACHELINE) % self.num_sets]

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        base = addr - addr % CACHELINE
        line_set = self._set_for(addr)
        line = line_set.get(base)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            line_set.move_to_end(base)
        return line

    def peek(self, addr: int) -> Optional[CacheLine]:
        return self._set_for(addr).get(addr - addr % CACHELINE)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self) -> Iterator[CacheLine]:
        for line_set in self._sets:
            yield from line_set.values()

    def _evict(self, line: CacheLine,
               writeback: Optional[Callable[[int], None]]) -> None:
        if line.poisoned:
            self.poison_evictions += 1
            if self.poison_sink is not None:
                self.poison_sink(line.addr)
        if writeback is not None:
            writeback(line.addr)

    def insert(self, addr: int, state: LineState,
               writeback: Optional[Callable[[int], None]] = None,
               ) -> Optional[CacheLine]:
        if state is LineState.INVALID:
            raise CoherenceError("cannot insert a line in INVALID state")
        base = addr - addr % CACHELINE
        line_set = self._set_for(addr)
        if base in line_set:
            line_set[base].state = state
            line_set.move_to_end(base)
            return None
        victim = None
        if len(line_set) >= self.ways:
            __, victim = line_set.popitem(last=False)
            self.evictions += 1
            if victim.state.is_dirty:
                self.writebacks += 1
                self._evict(victim, writeback)
        line_set[base] = CacheLine(base, state)
        return victim

    def set_state(self, addr: int, state: LineState) -> None:
        base = addr - addr % CACHELINE
        line_set = self._set_for(addr)
        if base not in line_set:
            if state is LineState.INVALID:
                return
            raise CoherenceError(f"state change on non-resident {hex(base)}")
        if state is LineState.INVALID:
            del line_set[base]
        else:
            line_set[base].state = state

    def poison_addr(self, addr: int) -> bool:
        line = self.peek(addr)
        if line is not None:
            line.poisoned = True
        return line is not None

    def invalidate(self, addr: int) -> bool:
        line = self._set_for(addr).pop(addr - addr % CACHELINE, None)
        return bool(line and line.state.is_dirty)

    def flush_all(self, writeback: Optional[Callable[[int], None]] = None,
                  ) -> int:
        dirty = 0
        for line_set in self._sets:
            for line in line_set.values():
                if line.state.is_dirty:
                    dirty += 1
                    self._evict(line, writeback)
            line_set.clear()
        return dirty
