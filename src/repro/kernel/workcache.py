"""Content-addressed memoization of functional kernel work.

The functional zswap/ksm paths compress, decompress, hash, and compare
*real page bytes* so the simulated kernels can assert round trips and
dedup correctness.  Those workloads are heavily content-redundant — the
zero page, a handful of shared library pages, repeated guest images —
so the pure-Python codecs recompute identical answers thousands of
times.  This module provides a bounded LRU keyed by page *content* (the
bytes are the address) that computes each distinct input once.

Scope is strictly the **functional** half: cached entries are the
immutable result objects (compressed blob, decompressed page, 32-bit
checksum, first-difference index).  Simulated *timing* is charged by the
streaming-IP resource models and never consults the cache — a hit saves
host CPU, not simulated nanoseconds, so every experiment's figures are
byte-identical with the cache on or off.  The deliberately-excluded case
is :meth:`~repro.core.offload.OffloadEngine._compressed_size`'s
non-functional ratio model, which *draws from the platform RNG*;
memoizing it would change the RNG stream.

Disable with the ``workcache`` flag (:mod:`repro.flags`,
``REPRO_WORKCACHE=0``); hit/miss telemetry feeds ``repro speed`` via
:meth:`WorkCache.snapshot`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro import flags
from repro.errors import ConfigError
from repro.kernel.compress import lz_compress, lz_decompress
from repro.kernel.xxhash import xxhash32

# Distinct 4 KiB inputs retained; at two pages per compare key this
# bounds resident page references to ~32 MiB.
DEFAULT_CAPACITY = 4096


class WorkCache:
    """Bounded LRU over ``(kind, content...)`` keys."""

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions",
                 "by_kind")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigError(f"workcache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.by_kind: Dict[str, Dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _tally(self, kind: str, outcome: str) -> None:
        per = self.by_kind.get(kind)
        if per is None:
            per = self.by_kind[kind] = {"hits": 0, "misses": 0}
        per[outcome] += 1

    def get(self, kind: str, key: Tuple,
            compute: Callable[[], Any]) -> Any:
        """Return the memoized result for ``(kind, *key)``, computing and
        inserting on a miss (evicting LRU entries beyond capacity)."""
        entries = self._entries
        full_key = (kind,) + key
        found = entries.get(full_key, _MISSING)
        if found is not _MISSING:
            self.hits += 1
            self._tally(kind, "hits")
            entries.move_to_end(full_key)
            return found
        self.misses += 1
        self._tally(kind, "misses")
        result = compute()
        entries[full_key] = result
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        return result

    def reset(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.by_kind = {}

    # -- checkpointing ----------------------------------------------------

    def __reduce_ex__(self, protocol):
        # The process-global cache pickles by identity (module-global
        # reference): a snapshotted graph holding WORK_CACHE reconnects
        # to the live global on restore; contents travel in the
        # checkpoint's ambient state.  Private caches still deep-copy.
        if self is WORK_CACHE:
            return "WORK_CACHE"
        return super().__reduce_ex__(protocol)

    def state(self) -> Dict[str, Any]:
        """A detached copy of the cache (entries in LRU order plus
        counters) for :mod:`repro.sim.checkpoint`.  Purely a warmth
        carrier: correctness never depends on cache contents, but a
        forked point should start exactly as warm as its cold twin."""
        return {
            "entries": list(self._entries.items()),
            "counters": (self.hits, self.misses, self.evictions),
            "by_kind": {k: dict(v) for k, v in self.by_kind.items()},
        }

    def install_state(self, state: Optional[Dict[str, Any]]) -> None:
        """Replace contents with a captured :meth:`state` (``None`` is a
        no-op).  Capacity stays this cache's own."""
        if state is None:
            return
        self._entries = OrderedDict(state["entries"])
        self.hits, self.misses, self.evictions = state["counters"]
        self.by_kind = {k: dict(v) for k, v in state["by_kind"].items()}

    def snapshot(self) -> Dict[str, Any]:
        """Telemetry for ``repro speed`` / tests."""
        return {
            "enabled": flags.get("workcache"),
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "by_kind": {k: dict(v) for k, v in sorted(self.by_kind.items())},
        }


_MISSING = object()

#: Process-wide cache. Workers in a parallel sweep each hold their own
#: (results are content-addressed pure functions, so caches never need
#: to agree — only to be correct).
WORK_CACHE = WorkCache()


def _content(data: bytes) -> bytes:
    """``data`` as an immutable, hashable key: a ``bytearray`` or
    ``memoryview`` page is copied, ``bytes`` is used as is."""
    return data if type(data) is bytes else bytes(data)


def cached_compress(data: bytes) -> bytes:
    if not flags.get("workcache"):
        return lz_compress(data)
    data = _content(data)
    return WORK_CACHE.get("compress", (data,), lambda: lz_compress(data))


def cached_decompress(blob: bytes) -> bytes:
    if not flags.get("workcache"):
        return lz_decompress(blob)
    blob = _content(blob)
    return WORK_CACHE.get("decompress", (blob,), lambda: lz_decompress(blob))


def cached_xxhash32(data: bytes, seed: int = 0) -> int:
    if not flags.get("workcache"):
        return xxhash32(data, seed)
    data = _content(data)
    return WORK_CACHE.get("hash", (data, seed),
                          lambda: xxhash32(data, seed))


def cached_compare(a: bytes, b: bytes,
                   compute: Callable[[], int]) -> int:
    """Memoized first-difference index (``compute`` supplies the
    comparator's exact semantics)."""
    if not flags.get("workcache"):
        return compute()
    return WORK_CACHE.get("compare", (_content(a), _content(b)), compute)
