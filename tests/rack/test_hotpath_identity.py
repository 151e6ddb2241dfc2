"""Rack hot paths: fast-forward identity and the wire codec round trip.

The quiescent-epoch fast-forward is a pure accelerator — `docs/RACK.md`_
promises the rack trajectory is the same byte for byte as stepping every
epoch, at any worker count, including runs where the host-kill fault
plan is armed.  The per-epoch reference is forced at ``jobs=1`` (shards
run in-process) by making every shard report its idle horizon as the
epoch start, which sends every epoch down the coordinator's demotion
path.  ``tests/golden`` pins the full ``ext_rack`` CLI stdout.

The packed wire codec must return exactly the items it framed:
``_decode_frame(kind, _encode_frame(kind, items)) == tuple(items)``.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rack import RackConfig, run_rack
from repro.rack import fabric
from repro.rack.host import ShardHost

HOSTS = 4
USERS = 2000

#: Arrivals land epochs apart at this utilization: most barriers are
#: empty, so fast-forward actually jumps (the dense default would make
#: the identity tests vacuous).
SPARSE = dict(hosts=HOSTS, users=256, buckets=64, servers_per_host=1,
              target_utilization=0.001, seed=42)


_epoch = ShardHost._epoch


def _busy_epoch(self, msg):
    report = _epoch(self, msg)
    report.idle_ns = msg["t0"]
    return report


def run_stepped(cfg):
    """Run ``cfg`` at ``jobs=1`` with fast-forward never eligible: every
    shard claims local work at the start of the epoch it just ran."""
    with mock.patch.object(ShardHost, "_epoch", _busy_epoch):
        return run_rack(cfg, jobs=1)


def test_fastforward_skips_and_is_byte_identical():
    cfg = RackConfig(**SPARSE)
    ff = run_rack(cfg, jobs=1)
    stepped = run_stepped(cfg)
    # The accelerator is live (it skipped most of the run) ...
    assert ff.fabric_stats["epochs_skipped"] > ff.fabric_stats["epochs_run"]
    assert ff.fabric_stats["ff_jumps"] > 0
    # ... the reference stepped every epoch ...
    assert stepped.fabric_stats["epochs_skipped"] == 0
    assert stepped.fabric_stats["epochs_run"] == stepped.epochs
    # ... and the results agree byte for byte, epochs stat included.
    assert ff.stats() == stepped.stats()
    # Stepped + skipped partitions the run exactly.
    assert (ff.fabric_stats["epochs_run"]
            + ff.fabric_stats["epochs_skipped"]) == ff.epochs


def test_fastforward_identity_on_dense_rack():
    cfg = RackConfig(hosts=HOSTS, users=USERS, seed=42)
    assert run_rack(cfg, jobs=1).stats() == run_stepped(cfg).stats()


def test_fastforward_identity_across_jobs():
    cfg = RackConfig(**SPARSE)
    base = run_rack(cfg, jobs=1).stats()
    for jobs in (2, 4):
        assert run_rack(cfg, jobs=jobs).stats() == base, f"jobs={jobs}"


def test_fastforward_identity_with_kill_armed_and_firing():
    """The armed window demotes to per-epoch stepping until the fault
    fires (or is disarmed); either way the trajectory is unchanged.
    Migrations (the richest frame: blob table) flow during the
    rebalance."""
    for frac in (0.5, 2.0):        # fires mid-run / armed-never-fires
        cfg = RackConfig(hosts=HOSTS, users=USERS, seed=42,
                         kill=(1, frac))
        stepped = run_stepped(cfg)
        ff = run_rack(cfg, jobs=1)
        assert ff.stats() == stepped.stats(), f"kill frac {frac}"
        assert ff.killed == stepped.killed


# ---------------------------------------------------------------------------
# Wire codec round trip
# ---------------------------------------------------------------------------

_ids = st.integers(min_value=-2**63, max_value=2**63 - 1)
_ns = st.floats(allow_nan=False)
_blob = st.binary(max_size=48)

_batches = {
    "req": st.lists(st.tuples(_ids, _ns), max_size=12),
    "nack": st.lists(st.tuples(_ids, _ns), max_size=12),
    "rep": st.lists(st.tuples(_ids, _ns, _ns), max_size=12),
    # A small blob pool makes duplicate values (deduplicated into one
    # blob-table entry) the common case.
    "migrate": st.lists(_blob, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.tuples(
            _ids, _ids,
            st.lists(st.tuples(_ids, st.sampled_from(pool)),
                     max_size=6).map(tuple)), max_size=5)),
}


@pytest.mark.parametrize("kind", sorted(_batches))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_codec_round_trips_every_kind(kind, data):
    items = data.draw(_batches[kind])
    frame = fabric._encode_frame(kind, items)
    assert fabric._decode_frame(kind, frame) == tuple(items)


@settings(max_examples=40, deadline=None)
@given(records=st.lists(st.tuples(_ids, _blob), max_size=12))
def test_codec_round_trips_migrate_through_hash_collisions(records):
    """Every blob hashes alike: the dedup table must fall back to its
    equality chain, keeping distinct values apart and equal ones
    shared."""
    items = [(3, 9, tuple(records))]
    with mock.patch.object(fabric, "cached_xxhash32", lambda value: 7):
        frame = fabric._encode_frame("migrate", items)
    assert fabric._decode_frame("migrate", frame) == tuple(items)
    distinct = dict.fromkeys(b for _k, b in records)
    blob_table = sum(4 + len(b) for b in distinct)
    header = 8 + 8 + 8 + 4 + 12 * len(records) + 4
    assert len(frame) == header + blob_table
