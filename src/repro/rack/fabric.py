"""Deterministic cross-shard message fabric.

Hosts exchange messages (cross-shard requests, replies, NACK bounces,
rebalance migrations) through a simulated switch.  Determinism rests on
three rules:

* **latency is simulated, not wall-clock** — a wire sent at
  ``send_ns`` arrives at ``send_ns + base_ns + nbytes * per_byte_ns``;
* **conservative lookahead** — ``base_ns >= epoch_ns`` (validated), so
  a message sent during epoch ``k`` can only arrive in epoch ``k+1`` or
  later: shards never need mid-epoch input from each other, which is
  what lets them run as parallel processes;
* **total delivery order** — each epoch's inbound wires are sorted by
  ``(arrival_ns, src, seq)``.  ``(src, seq)`` is unique per wire, so
  the order is total and independent of which worker produced which
  outbox first.  Any interleaving of shard execution yields the same
  delivery sequence, byte for byte.

Batching: :meth:`FabricPort.send_bulk` puts a whole per-destination
batch on one wire (one header, ``item_bytes`` per record).  Issuing one
wire per request inside the serving loop is the shape lint rule PERF405
flags — see docs/LINT.md.

Framing: a wire carries one ``struct``-packed columnar frame —
fixed-width lanes per field, migration value blobs deduplicated through
the page-store content hash — instead of a tuple of per-item Python
objects.  Crossing a process boundary then pickles one ``bytes`` object
per wire rather than every record; decode is lazy and reproduces the
exact item tuples the sender framed, so the codec is invisible to the
trajectory (``nbytes``, the *modelled* wire size, never depends on it).
docs/RACK.md#epoch-fast-forward--wire-framing has the determinism
contract.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kernel.workcache import cached_xxhash32


class FabricStats:
    """Coordinator-side fabric counters (mirrors ``WHEEL_STATS``).

    Process-global and cumulative; :func:`repro.rack.cluster.run_rack`
    snapshots before/after to report per-run deltas.  Everything here
    is measured on the coordinator, so the numbers are identical at any
    ``--jobs``.
    """

    __slots__ = ("epochs_run", "epochs_skipped", "ff_jumps",
                 "demoted_inflight", "demoted_backlog",
                 "demoted_directives", "demoted_kill",
                 "wires", "framed_bytes", "bounces")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.epochs_run = 0        # epochs actually stepped
        self.epochs_skipped = 0    # epochs fast-forwarded over
        self.ff_jumps = 0          # distinct fast-forward jumps
        self.demoted_inflight = 0  # idle but wires still in flight
        self.demoted_backlog = 0   # idle but shard backlog pending
        self.demoted_directives = 0  # idle but directives queued
        self.demoted_kill = 0      # jump clamped by an armed kill plan
        self.wires = 0             # wires routed through Fabric.push
        self.framed_bytes = 0      # actual frame bytes routed
        self.bounces = 0           # NACK bounces off retired hosts

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


FABRIC_STATS = FabricStats()

@dataclass(frozen=True)
class FabricConfig:
    """Switch timing/framing parameters (all simulated)."""

    #: Epoch length; also the parallel-execution quantum.
    epoch_ns: float = 500_000.0
    #: Propagation + switch + serialization floor per wire.  Must be at
    #: least ``epoch_ns`` (conservative lookahead; see module docs).
    base_ns: float = 600_000.0
    #: Per-byte serialization cost (~40 GB/s links).
    per_byte_ns: float = 0.025
    #: Framing overhead per wire.
    header_bytes: int = 64
    #: Wire size of one request/reply/migration record.
    item_bytes: int = 96

    def __post_init__(self) -> None:
        if self.epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive: {self.epoch_ns}")
        if self.base_ns < self.epoch_ns:
            raise ValueError(
                f"base_ns ({self.base_ns}) < epoch_ns ({self.epoch_ns}): "
                "fabric latency is the conservative lookahead; a message "
                "must never arrive inside its own send epoch")
        if self.per_byte_ns < 0:
            raise ValueError(f"negative per_byte_ns: {self.per_byte_ns}")

    def arrival_ns(self, send_ns: float, nbytes: int) -> float:
        return send_ns + self.base_ns + nbytes * self.per_byte_ns


def _encode_frame(kind: str, items: Sequence[Tuple]) -> bytes:
    """Pack a batch into one columnar frame.

    req/rep/nack items are flat ``(int, float, ...)`` tuples; the frame
    is self-describing — ``<I n`` · ``<B arity`` · one ``<{n}q`` id lane
    · ``arity - 1`` lanes of ``<{n}d`` — so req (user, issue), rep
    (user, issue, completion) and nack all share one format (which is
    what lets :meth:`Fabric.bounce` reuse a req frame verbatim).
    migrate carries bucket / cursor / record-count lanes, then one key +
    blob-index lane per record, then a deduplicated blob table
    (identical page images — the common case for replayed migrations —
    are stored once, looked up by the page-store content hash with an
    equality chain on collision).
    """
    n = len(items)
    if kind == "migrate":
        buckets: List[int] = []
        cursors: List[int] = []
        reccounts: List[int] = []
        keys: List[int] = []
        blob_idx: List[int] = []
        blobs: List[bytes] = []
        chains: Dict[int, List[int]] = {}
        for bucket, cursor, records in items:
            buckets.append(bucket)
            cursors.append(cursor)
            reccounts.append(len(records))
            for key, value in records:
                keys.append(key)
                chain = chains.setdefault(cached_xxhash32(value), [])
                for bi in chain:
                    if blobs[bi] == value:
                        break
                else:
                    bi = len(blobs)
                    blobs.append(value)
                    chain.append(bi)
                blob_idx.append(bi)
        m = len(keys)
        parts = [struct.pack(f"<II{n}q{n}q{n}I{m}q{m}II", n, m,
                             *buckets, *cursors, *reccounts,
                             *keys, *blob_idx, len(blobs))]
        for blob in blobs:
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        return b"".join(parts)
    if not n:
        return struct.pack("<IB", 0, 0)
    lanes = tuple(zip(*items))
    arity = len(lanes)
    parts = [struct.pack(f"<IB{n}q", n, arity, *lanes[0])]
    for lane in lanes[1:]:
        parts.append(struct.pack(f"<{n}d", *lane))
    return b"".join(parts)


def _decode_frame(kind: str, frame: bytes) -> Tuple:
    """Inverse of :func:`_encode_frame`: the framed items as a tuple of
    tuples of python ints/floats (and ``bytes`` blobs for migrate)."""
    if kind == "migrate":
        n, m = struct.unpack_from("<II", frame, 0)
        off = 8
        buckets = struct.unpack_from(f"<{n}q", frame, off)
        off += 8 * n
        cursors = struct.unpack_from(f"<{n}q", frame, off)
        off += 8 * n
        reccounts = struct.unpack_from(f"<{n}I", frame, off)
        off += 4 * n
        keys = struct.unpack_from(f"<{m}q", frame, off)
        off += 8 * m
        blob_idx = struct.unpack_from(f"<{m}I", frame, off)
        off += 4 * m
        (n_blobs,) = struct.unpack_from("<I", frame, off)
        off += 4
        blobs: List[bytes] = []
        for _ in range(n_blobs):
            (ln,) = struct.unpack_from("<I", frame, off)
            off += 4
            blobs.append(frame[off:off + ln])
            off += ln
        items = []
        r = 0
        for i in range(n):
            rc = reccounts[i]
            items.append((buckets[i], cursors[i],
                          tuple((keys[r + j], blobs[blob_idx[r + j]])
                                for j in range(rc))))
            r += rc
        return tuple(items)
    n, arity = struct.unpack_from("<IB", frame, 0)
    if not n:
        return ()
    off = 5
    lanes = [struct.unpack_from(f"<{n}q", frame, off)]
    off += 8 * n
    for _ in range(1, arity):
        lanes.append(struct.unpack_from(f"<{n}d", frame, off))
        off += 8 * n
    return tuple(zip(*lanes))


class Wire:
    """One message on the fabric: a routing header plus the payload held
    as one struct-packed frame.  ``kind`` is "req" | "rep" | "nack" |
    "migrate"; ``(src, seq)`` is unique.  Pickling ships only the frame
    (``__reduce__`` drops the decode cache); ``payload`` decodes lazily
    on first access, in-process and cross-process alike, so ``--jobs 1``
    and ``--jobs N`` execute the same code path.  ``nbytes`` is the
    *modelled* wire size — the frame's actual length never feeds back
    into arrival times."""

    __slots__ = ("src", "dst", "kind", "send_ns", "seq", "nbytes",
                 "count", "frame", "_items")

    def __init__(self, src: int, dst: int, kind: str, send_ns: float,
                 seq: int, nbytes: int, count: int, frame: bytes):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.send_ns = send_ns
        self.seq = seq
        self.nbytes = nbytes
        self.count = count
        self.frame = frame
        self._items: Optional[Tuple] = None

    @property
    def payload(self) -> Tuple:
        items = self._items
        if items is None:
            items = self._items = _decode_frame(self.kind, self.frame)
        return items

    def __reduce__(self):
        return (Wire, (self.src, self.dst, self.kind, self.send_ns,
                             self.seq, self.nbytes, self.count, self.frame))

    def __repr__(self) -> str:
        return (f"Wire(src={self.src}, dst={self.dst}, "
                f"kind={self.kind!r}, send_ns={self.send_ns}, "
                f"seq={self.seq}, nbytes={self.nbytes}, "
                f"count={self.count})")


class FabricPort:
    """A shard's transmit side: sequences and frames outbound wires."""

    def __init__(self, sid: int, cfg: FabricConfig):
        self.sid = sid
        self.cfg = cfg
        self._seq = 0
        self._out: List[Wire] = []
        self.sent_wires = 0
        self.sent_items = 0
        self.sent_bytes = 0

    def send_bulk(self, dst: int, kind: str, items: Sequence[Tuple],
                  send_ns: float) -> Wire:
        """Frame a whole per-destination batch as one wire."""
        if dst == self.sid:
            raise ValueError(f"shard {self.sid} sending to itself")
        nbytes = self.cfg.header_bytes + len(items) * self.cfg.item_bytes
        wire = Wire(self.sid, dst, kind, send_ns, self._seq, nbytes,
                    len(items), _encode_frame(kind, items))
        self._seq += 1
        self._out.append(wire)
        self.sent_wires += 1
        self.sent_items += len(items)
        self.sent_bytes += nbytes
        return wire

    def drain(self) -> Tuple[Wire, ...]:
        """This epoch's outbox, in send order; clears the buffer."""
        out = tuple(self._out)
        self._out.clear()
        return out


class Fabric:
    """Coordinator side: routes outboxes into per-epoch deliveries."""

    def __init__(self, cfg: FabricConfig):
        self.cfg = cfg
        self._pending: List[Tuple[float, int, int, Wire]] = []
        self._bounce_seq = 1 << 40
        self.routed_wires = 0
        self.routed_bytes = 0
        self.bounced_wires = 0

    def push(self, wires: Iterable[Wire]) -> None:
        """Accept outbound wires (coordinator calls this in sid order)."""
        stats = FABRIC_STATS
        for wire in wires:
            arrival = self.cfg.arrival_ns(wire.send_ns, wire.nbytes)
            self._pending.append((arrival, wire.src, wire.seq, wire))
            self.routed_wires += 1
            self.routed_bytes += wire.nbytes
            stats.wires += 1
            stats.framed_bytes += len(wire.frame)

    def bounce(self, wire: Wire, now_ns: float) -> Wire:
        """NACK a wire whose destination is off the ring: the switch
        returns it to the sender with the same payload, paying another
        fabric traversal.  The nack carries the dead destination as its
        src (so requester breakers attribute the failure); bounce seqs
        come from a fabric-owned counter offset far above any port's own
        range, keeping ``(src, seq)`` unique."""
        nbytes = self.cfg.header_bytes + wire.count * self.cfg.item_bytes
        # req and nack share a frame format: reuse the encoded bytes, no
        # decode/re-encode round-trip.
        nack = Wire(wire.dst, wire.src, "nack", now_ns, self._bounce_seq,
                    nbytes, wire.count, wire.frame)
        self._bounce_seq += 1
        self.bounced_wires += 1
        FABRIC_STATS.bounces += 1
        self.push((nack,))
        return nack

    def deliveries(self, t0: float, t1: float) -> Dict[int, Tuple[Wire, ...]]:
        """Wires arriving in ``[t0, t1)``, grouped by destination, each
        group sorted by ``(arrival_ns, src, seq)`` — the total order."""
        due: List[Tuple[float, int, int, Wire]] = []
        keep: List[Tuple[float, int, int, Wire]] = []
        for entry in self._pending:
            (due if t0 <= entry[0] < t1 else keep).append(entry)
        self._pending = keep
        due.sort(key=lambda e: (e[0], e[1], e[2]))
        grouped: Dict[int, List[Wire]] = {}
        for arrival, _src, _seq, wire in due:
            grouped.setdefault(wire.dst, []).append(wire)
        return {dst: tuple(ws) for dst, ws in grouped.items()}

    @property
    def in_flight(self) -> int:
        return len(self._pending)
