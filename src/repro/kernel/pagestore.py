"""Content-interned, refcounted page store.

The ksm/zswap studies are *by construction* full of byte-identical
pages — guest template pages, same-filled swap pages, repeated
compressed blobs.  The modeled device dedupes them; the simulator's
host memory should too.  :class:`PageStore` interns page-sized byte
strings by the same content hash the work cache uses
(:func:`~repro.kernel.workcache.cached_xxhash32`), with full-equality
collision chains, so every mapping of identical content shares one
canonical ``bytes`` object.

Copy-on-write falls out of Python's ``bytes`` immutability: writers
never mutate the canonical object — a write path *releases* the old
content and interns the new one (see ``VirtualMachine.write``), which
is the transparent copy-out.  Refcounts exist so the store can evict a
content entry the moment its last mapping goes away instead of pinning
every page ever seen; :meth:`release` is strict — over-releasing raises
rather than silently corrupting the count — and
:meth:`assert_balanced` lets tests prove no mapping leaked.

Poisoned pages are **never** interned: poison is per-physical-copy
state (a poisoned frame's bytes are known-bad), so folding it into a
shared canonical object would propagate the poison to innocent
mappings.  Callers pass ``poisoned=True`` and get their private buffer
back unshared.

Interning is always on.  The global :data:`PAGE_STORE` is surfaced by
``repro speed`` via :meth:`snapshot` — intern hit rate and bytes
deduplicated.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.workcache import cached_xxhash32

__all__ = ["PageStore", "PAGE_STORE"]


class PageStore:
    """Refcounted intern table: content hash → equality-checked chain."""

    __slots__ = ("_entries", "hits", "misses", "releases",
                 "poison_rejects", "bytes_deduped")

    def __init__(self) -> None:
        # hash -> [[canonical bytes, refcount], ...] (collision chain).
        self._entries: dict[int, list[list]] = {}
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.poison_rejects = 0
        self.bytes_deduped = 0

    # -- interning ------------------------------------------------------

    def intern(self, content: bytes, poisoned: bool = False) -> bytes:
        """Return the canonical object for ``content``, refcount +1.

        A poisoned buffer is returned untouched and untracked — its
        bytes must stay private to the one damaged physical copy.
        """
        if poisoned:
            self.poison_rejects += 1
            return content
        h = cached_xxhash32(content)
        chain = self._entries.get(h)
        if chain is None:
            self._entries[h] = [[content, 1]]
            self.misses += 1
            return content
        for pair in chain:
            canonical = pair[0]
            if canonical is content or canonical == content:
                pair[1] += 1
                self.hits += 1
                if canonical is not content:
                    self.bytes_deduped += len(content)
                return canonical
        chain.append([content, 1])
        self.misses += 1
        return content

    def release(self, content: bytes) -> None:
        """Drop one reference to interned ``content``; frees the entry at
        zero.  Raises ``KeyError`` for content this store never interned
        (or already fully released) — leaks must fail loudly."""
        h = cached_xxhash32(content)
        chain = self._entries.get(h)
        if chain is not None:
            for i, pair in enumerate(chain):
                if pair[0] is content or pair[0] == content:
                    pair[1] -= 1
                    self.releases += 1
                    if pair[1] <= 0:
                        del chain[i]
                        if not chain:
                            del self._entries[h]
                    return
        raise KeyError(f"release of un-interned content "
                       f"(hash 0x{h:08x}, {len(content)} B)")

    # -- introspection --------------------------------------------------

    @property
    def live_contents(self) -> int:
        """Distinct canonical byte strings currently interned."""
        return sum(len(chain) for chain in self._entries.values())

    @property
    def live_refs(self) -> int:
        return sum(pair[1] for chain in self._entries.values()
                   for pair in chain)

    @property
    def live_bytes(self) -> int:
        """Host memory actually held by canonical contents."""
        return sum(len(pair[0]) for chain in self._entries.values()
                   for pair in chain)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def assert_balanced(self) -> None:
        """Every intern must have been released: the store is empty.

        Leaks name their content hashes (with refcount and size) so a
        checkpoint round-trip that double-installed or under-released a
        store is debuggable from the message alone, not just countable.
        """
        if self._entries:
            rows = [
                f"0x{h:08x} ({pair[1]} ref(s), {len(pair[0])} B)"
                for h in sorted(self._entries)
                for pair in self._entries[h]
            ]
            shown, more = rows[:8], len(rows) - 8
            detail = ", ".join(shown) + (f", ... {more} more" if more > 0
                                         else "")
            raise AssertionError(
                f"page store leaked {self.live_refs} reference(s) across "
                f"{self.live_contents} content(s): {detail}")

    def reset(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.poison_rejects = 0
        self.bytes_deduped = 0

    # -- checkpointing ----------------------------------------------------

    def __reduce_ex__(self, protocol):
        # The process-global store pickles by *identity* (a module-global
        # reference, like NO_FAULTS): a snapshotted graph that holds
        # PAGE_STORE — every interning VM does — must reconnect to the
        # live global on restore, so its releases land where the
        # checkpoint's ambient state was installed.  Private stores still
        # deep-copy.
        if self is PAGE_STORE:
            return "PAGE_STORE"
        return super().__reduce_ex__(protocol)

    def state(self) -> dict:
        """A detached copy of the full store state (chains *and*
        counters) for :mod:`repro.sim.checkpoint`.  The canonical bytes
        objects themselves are shared, not copied — pickling this dict
        alongside a platform graph keeps a restored platform's pages and
        the restored store's entries the same objects."""
        return {
            "entries": {h: [[pair[0], pair[1]] for pair in chain]
                        for h, chain in self._entries.items()},
            "counters": (self.hits, self.misses, self.releases,
                         self.poison_rejects, self.bytes_deduped),
        }

    def install_state(self, state: Optional[dict]) -> None:
        """Replace this store's contents with a captured :meth:`state`
        (``None`` is a no-op: the snapshot skipped ambient capture).
        Chains are re-copied so the installed store never aliases the
        mutable pairs of whoever produced the state."""
        if state is None:
            return
        self._entries = {h: [[pair[0], pair[1]] for pair in chain]
                         for h, chain in state["entries"].items()}
        (self.hits, self.misses, self.releases,
         self.poison_rejects, self.bytes_deduped) = state["counters"]

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "releases": self.releases,
            "poison_rejects": self.poison_rejects,
            "hit_rate": round(self.hit_rate, 4),
            "bytes_deduped": self.bytes_deduped,
            "live_contents": self.live_contents,
            "live_refs": self.live_refs,
            "live_bytes": self.live_bytes,
        }


PAGE_STORE = PageStore()
