"""Differential property test: occupancy-sized cache vs the dense oracle.

Random operation sequences run against both :class:`SetAssociativeCache`
and :class:`DenseCache`; every return value, victim, writeback and
poison-sink callback, ``lines()`` order, ``len()`` and counter must agree
after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoherenceError
from repro.mem.cache import SetAssociativeCache
from repro.mem.coherence import LineState
from repro.units import CACHELINE, kib
from tests.mem.dense_cache import DenseCache

VALID = [s for s in LineState if s is not LineState.INVALID]
# 48 lines over 8 or 16 sets: plenty of conflicts and evictions.
addrs = st.integers(0, 48 * CACHELINE - 1)
ops = st.one_of(
    st.tuples(st.just("insert"), addrs, st.sampled_from(VALID)),
    st.tuples(st.just("lookup"), addrs, st.booleans()),
    st.tuples(st.just("peek"), addrs),
    st.tuples(st.just("set_state"), addrs, st.sampled_from(list(LineState))),
    st.tuples(st.just("invalidate"), addrs),
    st.tuples(st.just("poison_addr"), addrs),
    st.tuples(st.just("flush_all")),
)


def _line(line):
    return None if line is None else (line.addr, line.state, line.poisoned)


def _apply(cache, op, log):
    name, *args = op
    if name in ("insert", "flush_all"):
        args.append(log.append)     # writeback recorder
    try:
        result = getattr(cache, name)(*args)
    except CoherenceError:
        return (name, "CoherenceError")
    return (name, _line(result) if name in ("insert", "lookup", "peek")
            else result)


def _observe(cache):
    return ([_line(line) for line in cache.lines()], len(cache),
            cache.hits, cache.misses, cache.evictions, cache.writebacks,
            cache.poison_evictions)


@pytest.mark.parametrize("size,ways", [(kib(1), 2), (kib(1), 1),
                                       (kib(2), 8)])
@settings(max_examples=80, deadline=None)
@given(seq=st.lists(ops, max_size=120))
def test_matches_dense_oracle(size, ways, seq):
    sparse = SetAssociativeCache("sparse", size, ways)
    dense = DenseCache(size, ways)
    logs = {"sparse": [], "dense": []}
    sinks = {"sparse": [], "dense": []}
    sparse.poison_sink = lambda a: sinks["sparse"].append(a)
    dense.poison_sink = lambda a: sinks["dense"].append(a)
    for op in seq:
        assert _apply(sparse, op, logs["sparse"]) == \
            _apply(dense, op, logs["dense"]), op
        assert _observe(sparse) == _observe(dense), op
        # No empty set is ever kept: storage tracks occupancy.
        assert all(sparse._sets.values())
    assert logs["sparse"] == logs["dense"]
    assert sinks["sparse"] == sinks["dense"]


def test_absent_set_lookups_allocate_nothing():
    cache = SetAssociativeCache("llc", kib(64), 4)
    assert cache.lookup(0x1000) is None and cache.peek(0x2000) is None
    assert 0x3000 not in cache
    cache.set_state(0x4000, LineState.INVALID)
    assert cache.invalidate(0x5000) is False
    assert cache._sets == {}
    cache.insert(0x1000, LineState.MODIFIED)
    assert len(cache._sets) == 1
    cache.set_state(0x1000, LineState.INVALID)
    assert cache._sets == {}

