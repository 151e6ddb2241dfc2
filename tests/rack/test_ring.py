"""Hypothesis property suite for the consistent-hash ring.

The rack's rebalance protocol leans on exactly three ring properties
(see the module docstring of ``repro.rack.ring``): determinism from
derived seeds, stability under host add/remove (only the touched host's
keys change owner), and immutability (incremental update ≡ rebuild).
Each is pinned here as a property over random host sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rack.ring import HashRing

#: Keys probed per property.  Enough to hit every host at the vnode
#: counts below; small enough to keep the suite fast.
N_KEYS = 256

host_sets = st.sets(st.integers(0, 63), min_size=2, max_size=10)
seeds = st.integers(0, 2**31 - 1)


def owner_map(ring: HashRing) -> dict:
    return {k: ring.owner(k) for k in range(N_KEYS)}


# ---------------------------------------------------------------------------
# Determinism and partition
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(hosts=host_sets, seed=seeds)
def test_property_ring_is_deterministic_from_seed(hosts, seed):
    """Two independently built rings (any host iteration order) agree
    on every placement — the property that lets every shard worker
    derive the ring locally with no ring state on the wire."""
    a = HashRing(hosts, seed, vnodes=8)
    b = HashRing(reversed(sorted(hosts)), seed, vnodes=8)
    assert a == b
    assert a._points == b._points and a._owners == b._owners
    assert owner_map(a) == owner_map(b)


@settings(max_examples=40, deadline=None)
@given(hosts=host_sets, seed=seeds)
def test_property_every_key_has_exactly_one_owner(hosts, seed):
    ring = HashRing(hosts, seed, vnodes=8)
    owners = owner_map(ring)
    assert set(owners.values()) <= set(hosts)
    # owned() partitions the key range: disjoint, and unions to all.
    claimed: dict = {}
    for h in ring.hosts:
        for k in ring.owned(h, N_KEYS):
            assert k not in claimed, (k, h, claimed[k])
            claimed[k] = h
    assert claimed == owners


@settings(max_examples=40, deadline=None)
@given(hosts=host_sets, seed=seeds, vnodes=st.integers(1, 16),
       n_keys=st.integers(0, 1024))
def test_property_owner_table_equals_per_key_owner(hosts, seed, vnodes,
                                                   n_keys):
    """The vectorized table the shards build per ring, wrap-around past
    the last point included (few vnodes leave wide gaps)."""
    ring = HashRing(hosts, seed, vnodes=vnodes)
    table = ring.owner_table(n_keys)
    assert table.dtype == np.int64
    assert table.tolist() == [ring.owner(k) for k in range(n_keys)]


def test_different_seeds_place_keys_differently():
    """Derived seeds produce distinct rings (placement actually depends
    on the seed, not just the host set)."""
    a = owner_map(HashRing(range(8), seed=1, vnodes=8))
    b = owner_map(HashRing(range(8), seed=2, vnodes=8))
    assert a != b


# ---------------------------------------------------------------------------
# Stability: only the touched host's keys move
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(hosts=host_sets, seed=seeds, victim_idx=st.integers(0, 9))
def test_property_removal_moves_only_the_victims_keys(hosts, seed,
                                                      victim_idx):
    ring = HashRing(hosts, seed, vnodes=8)
    victim = ring.hosts[victim_idx % len(ring.hosts)]
    before = owner_map(ring)
    after = owner_map(ring.without_host(victim))
    for k in range(N_KEYS):
        if before[k] == victim:
            assert after[k] != victim
        else:
            assert after[k] == before[k], (k, before[k], after[k])


@settings(max_examples=40, deadline=None)
@given(hosts=host_sets, seed=seeds, newcomer=st.integers(64, 127))
def test_property_addition_moves_only_keys_the_newcomer_steals(
        hosts, seed, newcomer):
    ring = HashRing(hosts, seed, vnodes=8)
    before = owner_map(ring)
    after = owner_map(ring.with_host(newcomer))
    for k in range(N_KEYS):
        if after[k] != before[k]:
            assert after[k] == newcomer, (k, before[k], after[k])


@settings(max_examples=40, deadline=None)
@given(hosts=host_sets, seed=seeds, victim_idx=st.integers(0, 9))
def test_property_incremental_update_equals_rebuild(hosts, seed,
                                                    victim_idx):
    """without_host/with_host are indistinguishable from building the
    new host set from scratch — "rebalance conservation": the removed
    host's keys land exactly where a fresh ring would put them."""
    ring = HashRing(hosts, seed, vnodes=8)
    victim = ring.hosts[victim_idx % len(ring.hosts)]
    removed = ring.without_host(victim)
    scratch = HashRing([h for h in hosts if h != victim], seed, vnodes=8)
    assert removed == scratch
    assert owner_map(removed) == owner_map(scratch)
    # Round trip: adding the victim back restores the original exactly.
    assert removed.with_host(victim) == ring
    assert owner_map(removed.with_host(victim)) == owner_map(ring)


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


def test_ring_rejects_empty_and_bad_vnodes():
    with pytest.raises(ValueError):
        HashRing([], seed=1)
    with pytest.raises(ValueError):
        HashRing([0], seed=1, vnodes=0)


def test_ring_rejects_bad_membership_updates():
    ring = HashRing([0, 1], seed=1, vnodes=8)
    with pytest.raises(ValueError):
        ring.without_host(7)
    with pytest.raises(ValueError):
        ring.with_host(1)
    with pytest.raises(ValueError):
        ring.without_host(0).without_host(1)
