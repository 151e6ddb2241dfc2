"""Content-addressed work cache: LRU semantics, equivalence, telemetry.

The contract under test is the one docs/PERFORMANCE.md states: a hit
saves host CPU, never simulated nanoseconds — every functional result
and every timestamp is byte-identical with the cache on or off.
"""

from __future__ import annotations

import pytest

from repro import flags
from repro.errors import ConfigError
from repro.kernel.compress import lz_compress, lz_decompress
from repro.kernel.workcache import (
    WORK_CACHE,
    WorkCache,
    cached_compare,
    cached_compress,
    cached_decompress,
    cached_xxhash32,
)
from repro.kernel.xxhash import xxhash32
from repro.units import PAGE_SIZE

PAGES = [
    bytes(PAGE_SIZE),
    (b"shared library text " * 205)[:PAGE_SIZE],
    bytes(range(256)) * (PAGE_SIZE // 256),
]


@pytest.fixture(autouse=True)
def _pristine_cache():
    WORK_CACHE.reset()
    yield
    WORK_CACHE.reset()


# ---------------------------------------------------------------------------
# the LRU itself


def test_distinct_content_computed_once():
    cache = WorkCache(capacity=16)
    calls = []
    for __ in range(5):
        for page in PAGES:
            result = cache.get("compress", (page,),
                               lambda p=page: (calls.append(1),
                                               lz_compress(p))[1])
            assert result == lz_compress(page)
    assert len(calls) == len(PAGES)
    assert cache.misses == len(PAGES)
    assert cache.hits == (5 - 1) * len(PAGES)


def test_lru_eviction_order_and_counter():
    cache = WorkCache(capacity=2)
    cache.get("k", (b"a",), lambda: 1)
    cache.get("k", (b"b",), lambda: 2)
    cache.get("k", (b"a",), lambda: 1)          # touch: a is now MRU
    cache.get("k", (b"c",), lambda: 3)          # evicts b, the LRU
    assert cache.evictions == 1
    calls = []
    cache.get("k", (b"a",), lambda: calls.append(1))
    assert not calls                            # a survived
    cache.get("k", (b"b",), lambda: calls.append(1) or 2)
    assert calls                                # b was the victim


def test_kinds_do_not_collide():
    cache = WorkCache(capacity=8)
    assert cache.get("hash", (b"x",), lambda: 1) == 1
    assert cache.get("compress", (b"x",), lambda: 2) == 2


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        WorkCache(capacity=0)


def test_snapshot_shape():
    cache = WorkCache(capacity=4)
    cache.get("hash", (b"x", 0), lambda: 7)
    cache.get("hash", (b"x", 0), lambda: 7)
    snap = cache.snapshot()
    assert snap["entries"] == 1
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["by_kind"] == {"hash": {"hits": 1, "misses": 1}}


# ---------------------------------------------------------------------------
# the cached helpers agree with the raw codecs, on and off


@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_cached_helpers_match_direct(enabled):
    with flags.override(workcache=enabled):
        for page in PAGES:
            blob = cached_compress(page)
            assert blob == lz_compress(page)
            assert cached_decompress(blob) == lz_decompress(blob) == page
            assert cached_xxhash32(page) == xxhash32(page)
            assert cached_xxhash32(page, seed=7) == xxhash32(page, seed=7)
        assert cached_compare(PAGES[0], PAGES[1], lambda: 123) == 123
        # When on, a second identical compare must not re-run the
        # comparator.
        second = cached_compare(PAGES[0], PAGES[1], lambda: 456)
    if enabled:
        assert second == 123
    else:
        assert second == 456
        assert WORK_CACHE.hits == WORK_CACHE.misses == 0


@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_cached_helpers_accept_bytearray_pages(enabled):
    """A mutable page is keyed by its content, not its identity."""
    with flags.override(workcache=enabled):
        for page in PAGES:
            blob = cached_compress(bytearray(page))
            assert blob == lz_compress(page)
            assert cached_decompress(bytearray(blob)) == page
            assert cached_xxhash32(bytearray(page), seed=3) == xxhash32(
                page, seed=3)
            assert cached_compare(bytearray(page), bytearray(page),
                                  lambda: -1) == -1
        # Content keys: the bytes page hits what the bytearray stored.
        assert cached_compress(PAGES[1]) == lz_compress(PAGES[1])
    if enabled:
        assert WORK_CACHE.hits > 0


@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("transport", ["cpu", "cxl"])
def test_zswap_round_trips_a_bytearray_page(enabled, transport):
    from repro.core.offload import OffloadEngine
    from repro.core.platform import Platform
    from repro.kernel.swapdev import SwapDevice
    from repro.kernel.zswap import Zswap

    p = Platform(seed=1)
    zswap = Zswap(OffloadEngine(p, functional=True), SwapDevice(p.sim),
                  transport, managed_pages=64)
    page = bytearray(PAGES[1])
    with flags.override(workcache=enabled):
        handle, __ = p.sim.run_process(zswap.store(page))
        data, hit = p.sim.run_process(zswap.load(handle))
    assert data == page and hit


def test_seed_is_part_of_the_hash_key():
    with flags.override(workcache=True):
        assert cached_xxhash32(PAGES[1], seed=0) != cached_xxhash32(
            PAGES[1], seed=1)


def _engages() -> bool:
    """Whether a cached codec call consults WORK_CACHE right now."""
    WORK_CACHE.reset()
    cached_compress(PAGES[0])
    return WORK_CACHE.misses == 1


def test_env_default_and_forced_override(monkeypatch):
    """The codec wrappers sample the ``workcache`` flag per call (its
    spellings are tested once, in tests/test_flags.py)."""
    monkeypatch.delenv("REPRO_WORKCACHE", raising=False)
    assert _engages()
    monkeypatch.setenv("REPRO_WORKCACHE", "off")    # was silently "on"
    assert not _engages()
    with flags.override(workcache=True):
        assert _engages()                       # override beats env
    assert not _engages()


# ---------------------------------------------------------------------------
# cache on/off never changes simulated results or timing


def _zswap_ksm_trace() -> tuple:
    from repro.core.offload import OffloadEngine
    from repro.core.platform import Platform
    from repro.kernel.ksm import Ksm
    from repro.kernel.swapdev import SwapDevice
    from repro.kernel.vm import make_vm_fleet
    from repro.kernel.zswap import Zswap

    p = Platform()
    engine = OffloadEngine(p, functional=True)
    zswap = Zswap(engine, SwapDevice(p.sim), "cxl", managed_pages=64)
    handles = []
    for k in range(12):
        page = PAGES[k % len(PAGES)]
        handle, report = p.sim.run_process(zswap.store(page))
        handles.append(
            (handle, report.total_ns if report else None, p.sim.now))
    loaded = []
    for handle, __, __ in handles[:6]:
        data = p.sim.run_process(zswap.load(handle))
        loaded.append((data, p.sim.now))
    vms = make_vm_fleet(2, 12, shared_fraction=0.5, rng=p.rng.fork(5))
    ksm = Ksm(engine, "cxl", vms, functional=True)
    merged = p.sim.run_process(ksm.full_scan())
    return handles, loaded, merged, p.sim.now


def test_zswap_ksm_identical_with_cache_on_and_off():
    with flags.override(workcache=False):
        off = _zswap_ksm_trace()
    WORK_CACHE.reset()
    with flags.override(workcache=True):
        on = _zswap_ksm_trace()
    assert off == on
    assert WORK_CACHE.hits > 0                  # the cache actually engaged
