"""Consistent-hash ring: which host owns which key bucket.

The ring places ``vnodes`` virtual points per host on a 32-bit circle
and assigns a key to the first point clockwise of its hash.  Properties
the rack (and the hypothesis suite in ``tests/rack/test_ring.py``)
relies on:

* **determinism** — points come from ``zlib.crc32`` over strings built
  from the ring seed (``hash(str)`` is salted per process; crc32 is
  not), so every shard worker derives the identical ring from the
  shared config, with no ring state on the wire;
* **stability** — a host's points depend only on ``(seed, host)``, so
  removing host ``d`` leaves every other point in place: the only keys
  that change owner are those ``d`` owned (they fall through to the
  next surviving point).  Likewise adding a host only steals keys for
  the points it introduces;
* **immutability** — :meth:`without_host` / :meth:`with_host` return a
  *new* ring equal to one built from scratch with the new host set, so
  "rebuild" and "incrementally update" cannot disagree.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Iterable, Tuple

import numpy as np

#: Virtual points per host.  64 keeps the owner histogram within ~20 %
#: of uniform at 16 hosts while the full ring stays ~1k entries.
DEFAULT_VNODES = 64


def _h32(text: str) -> int:
    return zlib.crc32(text.encode("ascii")) & 0xFFFFFFFF


class HashRing:
    """An immutable consistent-hash ring over integer host ids."""

    __slots__ = ("seed", "vnodes", "hosts", "_points", "_owners")

    def __init__(self, hosts: Iterable[int], seed: int,
                 vnodes: int = DEFAULT_VNODES):
        hosts_t: Tuple[int, ...] = tuple(sorted({int(h) for h in hosts}))
        if not hosts_t:
            raise ValueError("a ring needs at least one host")
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive: {vnodes}")
        self.seed = int(seed)
        self.vnodes = int(vnodes)
        self.hosts = hosts_t
        # Ties (two hosts hashing a point to the same value) order by
        # host id, giving a total order -- owner() is then well defined
        # and removal moves only the removed host's keys.
        pairs = sorted(
            (_h32(f"vnode:{self.seed}:{h}:{v}"), h)
            for h in hosts_t for v in range(self.vnodes))
        self._points = [p for p, _ in pairs]
        self._owners = [o for _, o in pairs]

    def key_point(self, key: int) -> int:
        """Where ``key`` lands on the circle."""
        return _h32(f"key:{self.seed}:{int(key)}")

    def owner(self, key: int) -> int:
        """The host owning ``key``: first point at or clockwise of it."""
        i = bisect.bisect_left(self._points, self.key_point(key))
        if i == len(self._points):
            i = 0
        return self._owners[i]

    def owner_table(self, n_keys: int) -> np.ndarray:
        """``owner(k)`` for every key in ``range(n_keys)``, as an int64
        array: the key points, then one ``searchsorted`` (which is
        ``bisect_left``) over the ring."""
        keys = np.fromiter((self.key_point(k) for k in range(n_keys)),
                           dtype=np.int64, count=n_keys)
        idx = np.searchsorted(np.asarray(self._points, dtype=np.int64), keys)
        idx[idx == len(self._points)] = 0
        return np.asarray(self._owners, dtype=np.int64)[idx]

    def owned(self, host: int, n_keys: int) -> Tuple[int, ...]:
        """Keys in ``range(n_keys)`` this host owns, ascending."""
        return tuple(k for k in range(n_keys) if self.owner(k) == host)

    def without_host(self, host: int) -> "HashRing":
        if host not in self.hosts:
            raise ValueError(f"host {host} not on the ring")
        if len(self.hosts) == 1:
            raise ValueError("cannot remove the last host")
        return HashRing((h for h in self.hosts if h != host),
                        self.seed, self.vnodes)

    def with_host(self, host: int) -> "HashRing":
        if host in self.hosts:
            raise ValueError(f"host {host} already on the ring")
        return HashRing(self.hosts + (int(host),), self.seed, self.vnodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return (self.seed == other.seed and self.vnodes == other.vnodes
                and self.hosts == other.hosts)

    def __hash__(self) -> int:
        return hash((self.seed, self.vnodes, self.hosts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HashRing(hosts={self.hosts}, seed={self.seed}, "
                f"vnodes={self.vnodes})")
