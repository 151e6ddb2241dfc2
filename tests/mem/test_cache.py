"""Unit + property tests for the set-associative cache."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoherenceError, ConfigError
from repro.lint.sanitizer import CoherenceSanitizer
from repro.mem.cache import CacheLine, SetAssociativeCache
from repro.mem.coherence import LineState
from repro.sim.engine import Simulator
from repro.units import CACHELINE, kib


def make_cache(size=kib(4), ways=4):
    return SetAssociativeCache("test", size, ways)


def test_geometry():
    cache = make_cache(kib(4), 4)
    assert cache.num_sets == 16
    assert cache.capacity_lines == 64


def test_direct_mapped_geometry():
    cache = make_cache(kib(32), 1)
    assert cache.num_sets == 512
    assert cache.ways == 1


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        SetAssociativeCache("bad", 1000, 3)   # not divisible
    with pytest.raises(ConfigError):
        SetAssociativeCache("bad", 0, 1)


def test_insert_and_lookup():
    cache = make_cache()
    cache.insert(0x1000, LineState.SHARED)
    line = cache.lookup(0x1000)
    assert line is not None and line.state is LineState.SHARED
    assert cache.hits == 1


def test_lookup_any_offset_in_line():
    cache = make_cache()
    cache.insert(0x1000, LineState.EXCLUSIVE)
    assert cache.lookup(0x1000 + 63) is not None
    assert cache.lookup(0x1000 + 64) is None


def test_miss_counts():
    cache = make_cache()
    assert cache.lookup(0x2000) is None
    assert cache.misses == 1


def test_insert_updates_existing_state():
    cache = make_cache()
    cache.insert(0x1000, LineState.SHARED)
    victim = cache.insert(0x1000, LineState.MODIFIED)
    assert victim is None
    assert cache.state_of(0x1000) is LineState.MODIFIED
    assert len(cache) == 1


def test_lru_eviction_order():
    cache = make_cache(kib(4), 4)   # 16 sets
    set_stride = cache.num_sets * CACHELINE
    addrs = [i * set_stride for i in range(5)]  # all map to set 0
    for addr in addrs[:4]:
        cache.insert(addr, LineState.SHARED)
    cache.lookup(addrs[0])          # make addr0 most-recent
    victim = cache.insert(addrs[4], LineState.SHARED)
    assert victim is not None and victim.addr == addrs[1]
    assert addrs[0] in cache


def test_dirty_eviction_triggers_writeback():
    cache = make_cache(kib(4), 1)
    written_back = []
    stride = cache.num_sets * CACHELINE
    cache.insert(0, LineState.MODIFIED)
    cache.insert(stride, LineState.SHARED, writeback=written_back.append)
    assert written_back == [0]
    assert cache.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = make_cache(kib(4), 1)
    written_back = []
    stride = cache.num_sets * CACHELINE
    cache.insert(0, LineState.SHARED)
    cache.insert(stride, LineState.SHARED, writeback=written_back.append)
    assert written_back == []


def test_set_state_and_invalidate():
    cache = make_cache()
    cache.insert(0x40, LineState.EXCLUSIVE)
    cache.set_state(0x40, LineState.SHARED)
    assert cache.state_of(0x40) is LineState.SHARED
    cache.set_state(0x40, LineState.INVALID)
    assert 0x40 not in cache


def test_set_state_on_absent_line_rejected():
    cache = make_cache()
    with pytest.raises(CoherenceError):
        cache.set_state(0x40, LineState.SHARED)
    # ...but invalidating an absent line is a harmless no-op
    cache.set_state(0x40, LineState.INVALID)


def test_insert_invalid_rejected():
    cache = make_cache()
    with pytest.raises(CoherenceError):
        cache.insert(0x40, LineState.INVALID)


def test_invalidate_reports_dirtiness():
    cache = make_cache()
    cache.insert(0x40, LineState.MODIFIED)
    assert cache.invalidate(0x40) is True
    cache.insert(0x80, LineState.SHARED)
    assert cache.invalidate(0x80) is False
    assert cache.invalidate(0xC0) is False  # absent


def test_flush_all_counts_dirty():
    cache = make_cache()
    cache.insert(0x40, LineState.MODIFIED)
    cache.insert(0x80, LineState.SHARED)
    cache.insert(0xC0, LineState.MODIFIED)
    flushed = []
    assert cache.flush_all(flushed.append) == 2
    assert sorted(flushed) == [0x40, 0xC0]
    assert len(cache) == 0


def test_peek_has_no_side_effects():
    cache = make_cache()
    cache.insert(0x40, LineState.SHARED)
    hits_before = cache.hits
    assert cache.peek(0x40) is not None
    assert cache.peek(0x80) is None
    assert cache.hits == hits_before


def test_misaligned_line_rejected():
    with pytest.raises(CoherenceError):
        CacheLine(0x41, LineState.SHARED)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5000),
                          st.sampled_from([s for s in LineState
                                           if s is not LineState.INVALID])),
                max_size=300))
def test_property_occupancy_never_exceeds_capacity(ops):
    cache = SetAssociativeCache("prop", kib(2), 2)
    for line_idx, state in ops:
        cache.insert(line_idx * CACHELINE, state)
    assert len(cache) <= cache.capacity_lines
    per_set = Counter(cache.set_index(line.addr) for line in cache.lines())
    assert sum(per_set.values()) == len(cache)
    assert all(n <= cache.ways for n in per_set.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
def test_property_resident_lines_are_valid(line_indices):
    cache = SetAssociativeCache("prop", kib(2), 4)
    for idx in line_indices:
        cache.insert(idx * CACHELINE, LineState.SHARED)
    for line in cache.lines():
        assert line.state.is_valid
        assert line.addr % CACHELINE == 0


# -- the batched fill against the insert loop it stands in for -------------

VALID_STATES = [s for s in LineState if s is not LineState.INVALID]
# 48 lines, unaligned offsets included, over 1-8 sets of 1-4 ways.
fill_addrs = st.integers(0, 48 * CACHELINE - 1)


def _filled(sets, ways, resident, addrs, state, armed, batched):
    """A cache holding ``resident`` (poisoned where flagged), filled with
    ``addrs``; returns everything a fill may touch."""
    cache = SetAssociativeCache("fill", sets * ways * CACHELINE, ways)
    sunk, written = [], []
    cache.poison_sink = sunk.append
    for addr, resident_state, poisoned in resident:
        cache.insert(addr, resident_state, written.append)
        if poisoned:
            cache.poison_addr(addr)
    sanitizer = CoherenceSanitizer(Simulator(), strict=False)
    if armed:
        sanitizer.watch(cache)
    if batched:
        cache.fill(addrs, state, written.append)
    else:
        for addr in addrs:
            cache.insert(addr, state, written.append)
    return ([(line.addr, line.state, line.poisoned, line.owner is cache)
             for line in cache.lines()],
            len(cache), cache.hits, cache.misses, cache.evictions,
            cache.writebacks, cache.poison_evictions, cache.poison_seen,
            written, sunk, sanitizer.checks, len(sanitizer.violations))


@settings(max_examples=200, deadline=None)
@given(sets=st.sampled_from([1, 2, 4, 8]), ways=st.sampled_from([1, 2, 4]),
       resident=st.lists(st.tuples(fill_addrs, st.sampled_from(VALID_STATES),
                                   st.booleans()), max_size=40),
       addrs=st.lists(fill_addrs, max_size=60),
       state=st.sampled_from(VALID_STATES), armed=st.booleans())
def test_fill_matches_the_insert_loop(sets, ways, resident, addrs, state,
                                      armed):
    """Sets, LRU order, counters, writebacks and poison-sink calls in
    order, owners; with an armed sanitizer, the checks it ran too."""
    args = (sets, ways, resident, addrs, state, armed)
    assert _filled(*args, batched=True) == _filled(*args, batched=False)


def test_fill_rejects_invalid():
    with pytest.raises(CoherenceError):
        make_cache().fill([0x40], LineState.INVALID)


def test_any_dirty_in_sets_sees_only_the_fills_sets():
    cache = make_cache(kib(1), 2)            # 8 sets
    cache.insert(0x40, LineState.MODIFIED)   # set 1
    cache.insert(0x80, LineState.SHARED)     # set 2
    assert cache.any_dirty_in_sets([0x40 + 8 * CACHELINE])
    assert not cache.any_dirty_in_sets([0x80, 0xC0])
    cache.poison_addr(0x80)
    assert cache.any_dirty_in_sets([0x80 + 8 * CACHELINE])
