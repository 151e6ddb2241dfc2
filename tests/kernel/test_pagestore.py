"""Content-interned COW page store: refcounts, poison, ksm round-trips.

The store's contract: byte-identical contents share one canonical
``bytes`` object; every intern is paired with a release (teardown
asserts the balance); writes copy out instead of mutating; poisoned
pages never enter the store.
"""

from __future__ import annotations

import pytest

from repro.kernel.ksm import Ksm
from repro.kernel.pagestore import PAGE_STORE, PageStore
from repro.kernel.vm import VirtualMachine, make_vm_fleet
from repro.sim.rng import DeterministicRng
from repro.units import PAGE_SIZE


def _page(fill, stamp=b""):
    content = bytearray([fill]) * PAGE_SIZE
    content[: len(stamp)] = stamp
    return bytes(content)


# ---------------------------------------------------------------------------
# PageStore core semantics
# ---------------------------------------------------------------------------


def test_intern_dedupes_equal_contents_to_one_canonical_object():
    store = PageStore()
    a = _page(7)
    b = _page(7)          # equal bytes, distinct object
    assert a is not b
    ca = store.intern(a)
    cb = store.intern(b)
    assert ca is cb
    assert store.live_contents == 1
    assert store.live_refs == 2
    assert store.bytes_deduped == PAGE_SIZE
    store.release(ca)
    store.release(cb)
    store.assert_balanced()


def test_release_frees_at_zero_and_over_release_raises():
    store = PageStore()
    content = store.intern(_page(3))
    store.release(content)
    assert store.live_contents == 0
    with pytest.raises(KeyError):
        store.release(content)


def test_poisoned_content_is_never_interned():
    store = PageStore()
    bad = _page(0xEE)
    returned = store.intern(bad, poisoned=True)
    assert returned is bad
    assert store.live_contents == 0
    assert store.poison_rejects == 1
    # The same bytes from a healthy mapping intern normally.
    good = store.intern(_page(0xEE))
    assert store.live_refs == 1
    store.release(good)
    store.assert_balanced()


def test_assert_balanced_reports_leaks():
    store = PageStore()
    store.intern(_page(1))
    with pytest.raises(AssertionError, match="leaked"):
        store.assert_balanced()


def test_hash_collision_chains_keep_contents_distinct():
    """Different contents always stay distinct entries, even if they
    ever landed in one hash bucket (full-equality chains)."""
    store = PageStore()
    pages = [_page(0, stamp=bytes([i])) for i in range(32)]
    canon = [store.intern(p) for p in pages]
    assert store.live_contents == 32
    for p, c in zip(pages, canon):
        assert c is p           # first intern of each content wins
        store.release(c)
    store.assert_balanced()


# ---------------------------------------------------------------------------
# VirtualMachine copy-on-write through the store
# ---------------------------------------------------------------------------


def test_vm_write_copies_out_and_rebalances_refs():
    store = PageStore()
    vm_a = VirtualMachine("a", store=store)
    vm_b = VirtualMachine("b", store=store)
    shared = _page(5)
    vm_a.map_page(0, shared)
    vm_b.map_page(0, _page(5))
    assert vm_a.read(0) is vm_b.read(0)       # deduped across VMs
    vm_a.write(0, _page(6))
    # b still sees the original bytes; a sees its private new content.
    assert vm_b.read(0) == shared
    assert vm_a.read(0) == _page(6)
    assert store.live_contents == 2
    vm_a.unmap_all()
    vm_b.unmap_all()
    store.assert_balanced()


def test_vm_poisoned_pages_stay_private():
    store = PageStore()
    vm = VirtualMachine("p", store=store)
    vm.map_page(0, _page(9), poisoned=True)
    assert store.live_contents == 0
    # A write to a poisoned frame stays un-interned too.
    vm.write(0, _page(10))
    assert store.live_contents == 0
    vm.unmap_all()
    store.assert_balanced()


def test_vm_poison_page_evicts_content_from_store():
    store = PageStore()
    vm = VirtualMachine("q", store=store)
    vm.map_page(0, _page(4))
    vm.map_page(1, _page(4))
    assert store.live_refs == 2
    vm.poison_page(0)
    assert store.live_refs == 1               # only the healthy mapping
    assert vm.page_of(0).poisoned
    vm.unmap_all()
    store.assert_balanced()


# ---------------------------------------------------------------------------
# ksm merge/unmerge round-trips through the store
# ---------------------------------------------------------------------------


def _scan(platform, ksm):
    platform.sim.run_process(ksm.full_scan())


def test_ksm_merge_and_cow_unmerge_preserve_bytes(platform):
    """Two full scans merge the template pages; guest writes then break
    every share.  Byte contents must round-trip exactly, and the store
    must balance after teardown."""
    store = PageStore()
    rng = DeterministicRng(11)
    vms = make_vm_fleet(3, 12, shared_fraction=0.5, rng=rng)
    # Rebuild the fleet against a private store for leak accounting.
    originals = {}
    fleet = []
    for i, vm in enumerate(vms):
        clone = VirtualMachine(f"pvm{i}", store=store)
        for page in vm.pages():
            clone.map_page(page.vpn, page.content)
            originals[(i, page.vpn)] = bytes(page.content)
        fleet.append(clone)

    from repro.core.offload import OffloadEngine
    ksm = Ksm(OffloadEngine(platform, functional=True), "cxl", fleet)
    _scan(platform, ksm)
    _scan(platform, ksm)
    assert ksm.stats.pages_merged > 0
    for i, vm in enumerate(fleet):
        for page in vm.pages():
            assert page.content == originals[(i, page.vpn)]

    # Unmerge: every VM rewrites its template pages with private bytes.
    rewritten = set()
    for i, vm in enumerate(fleet):
        for page in list(vm.pages()):
            if page.shared:
                vm.write(page.vpn, _page(i + 1, stamp=bytes([page.vpn])))
                rewritten.add((i, page.vpn))
    assert rewritten
    for i, vm in enumerate(fleet):
        for page in vm.pages():
            assert not page.shared
            # Non-rewritten pages still hold their original bytes.
            if (i, page.vpn) not in rewritten:
                assert page.content == originals[(i, page.vpn)]
    for vm in fleet:
        vm.unmap_all()
    store.assert_balanced()


def test_global_store_balances_across_fleet_teardown():
    """The default global PAGE_STORE: a fleet maps, writes, and unmaps;
    its net footprint in the store must return to what it started as."""
    before = (PAGE_STORE.live_refs, PAGE_STORE.live_contents)
    rng = DeterministicRng(23)
    vms = make_vm_fleet(4, 16, shared_fraction=0.75, rng=rng)
    assert PAGE_STORE.live_refs > before[0]   # templates deduped in
    for vm in vms:
        vm.write(3, _page(0x42, stamp=vm.name.encode()))
    for vm in vms:
        vm.unmap_all()
    assert (PAGE_STORE.live_refs, PAGE_STORE.live_contents) == before


def test_assert_balanced_names_offending_hashes():
    """Satellite of the checkpoint work: a leak report carries the
    content hashes, refcounts and sizes, so an unbalanced fork is
    debuggable from the message alone."""
    store = PageStore()
    a, b = _page(1), _page(2)
    store.intern(a)
    store.intern(b)
    store.intern(b)
    with pytest.raises(AssertionError) as exc:
        store.assert_balanced()
    msg = str(exc.value)
    assert "0x" in msg and "2 ref(s)" in msg and f"{len(a)} B" in msg


def test_state_install_round_trip_preserves_chains_and_counters():
    store = PageStore()
    content = store.intern(_page(3))
    store.intern(_page(3))
    state = store.state()
    store.intern(_page(4))            # diverge after the capture
    store.install_state(state)
    assert store.live_refs == 2
    assert store.live_contents == 1
    # The canonical object is shared, not copied: a holder of the
    # pre-capture bytes can still release against the installed state.
    store.release(content)
    store.release(content)
    store.assert_balanced()


def test_global_store_pickles_by_identity():
    import pickle

    from repro.kernel.pagestore import PAGE_STORE
    clone = pickle.loads(pickle.dumps(PAGE_STORE, protocol=4))
    assert clone is PAGE_STORE
    private = PageStore()
    assert pickle.loads(pickle.dumps(private, protocol=4)) is not private
