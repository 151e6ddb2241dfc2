r"""Deterministic whole-simulator snapshots: checkpoint once, fork N times.

Every sweep in this repo is a grid of *independent* simulator instances,
and every point of a grid replays the same warm-up — platform
construction, cost-profile calibration, pool prefill — before the swept
parameter even matters.  This module lifts the bulk-fast-forward idea
one level up: run the warm-up **once**, snapshot the entire object
graph, and *fork* each point from the snapshot instead of recomputing
it (the software-simulator analogue of gem5-style checkpointing that
CXL-DMSim and Cohet lean on for full-system CXL campaigns).

A :func:`snapshot` captures, in one pickle payload:

* the **engine** — clock, global sequence counter, and any pending
  deadline-bucket / delta entries, so post-restore scheduling
  continues with exactly the ``(time, seq)`` ordering the original
  would have produced (tombstoned cancelled timers included: they must
  still pop at their slot for the clock trajectory to match);
* every object reachable from the root — caches, DCOH state, RNG
  streams (`numpy` generators serialize their full bit-generator
  state), latency recorders (exact and streaming), resilience breaker
  state, doorbells, pools;
* the **ambient stores** — the process-global content-interned
  :data:`~repro.kernel.pagestore.PAGE_STORE` and the
  :data:`~repro.kernel.workcache.WORK_CACHE`, captured in the *same*
  payload so a restored platform's page bytes and the restored store's
  canonical entries are the **same objects** (pickle memoization), and
  refcount accounting stays balanced across forks.

**What cannot be snapshotted:** live generator-based processes.  A
generator frame has no portable serialization, so a checkpoint must be
taken at *quiescence* — after :meth:`Simulator.run` drained the queues
(or with only generator-free callbacks pending, e.g. plain timers and
tombstones).  :class:`~repro.errors.CheckpointError` says so, loudly,
instead of producing a snapshot that silently dropped work.

Determinism contract (pinned by ``tests/sim/test_checkpoint_equiv.py``
exactly the way bulk off/on is pinned): a point
forked from a warm-up checkpoint produces **byte-identical** output to
a cold run that executed the same warm-up followed by the same point.
Turning the ``checkpoint`` flag off (:mod:`repro.flags`,
``REPRO_CHECKPOINT=0``) routes :func:`~repro.sim.parallel.run_forked_sweep`
through the cold path.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import pickletools
from typing import Any, Dict, Optional

from repro.errors import CheckpointError

__all__ = ["Checkpoint", "CheckpointStats", "CHECKPOINT_STATS", "snapshot"]

#: Fixed pickle protocol: snapshots written by one interpreter must load
#: in any other worker of the same sweep, and the payload digest must
#: not depend on which Python minor version happened to run the warm-up.
PICKLE_PROTOCOL = 4


class CheckpointStats:
    """Process-global checkpoint telemetry surfaced by ``repro speed``."""

    __slots__ = ("snapshots", "restores", "cold_warmups", "snapshot_bytes",
                 "largest_snapshot_bytes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.snapshots = 0
        self.restores = 0
        self.cold_warmups = 0
        self.snapshot_bytes = 0
        self.largest_snapshot_bytes = 0

    def snapshot(self) -> dict:
        return {
            "snapshots": self.snapshots,
            "restores": self.restores,
            "cold_warmups": self.cold_warmups,
            "snapshot_bytes": self.snapshot_bytes,
            "largest_snapshot_bytes": self.largest_snapshot_bytes,
        }


CHECKPOINT_STATS = CheckpointStats()

# Persisted-snapshot header: refuse to restore a payload written under a
# different schema instead of failing somewhere deep inside pickle.
# Bump it whenever a pickled engine class changes its slots (/2: the
# timer wheel's far levels became one far heap; /3: caches gained
# ``poison_seen``; /4: the timer wheel became one bucket per deadline;
# /5: the Type-2 device gained ``checks_in_flight`` and the bulk train
# groups' write-queue ledgers moved onto the platform; /6: the train
# group gave way to a live-train record and the ledgers gained a
# running drain end).
_FILE_MAGIC = b"repro-checkpoint/6\n"


def _ambient_state() -> Dict[str, Any]:
    """Capture the process-global stores a restored run depends on.

    The page store is *load-bearing*: a restored platform releases the
    page references its warm-up interned, so every fork must start from
    the store state the warm-up left behind or refcounts go negative.
    The work cache is pure memoization (correctness never depends on
    its contents) but is carried so a fork starts exactly as warm as
    the cold run would be at the same point.
    """
    from repro.kernel.pagestore import PAGE_STORE
    from repro.kernel.workcache import WORK_CACHE
    return {
        "pagestore": PAGE_STORE.state(),
        "workcache": WORK_CACHE.state(),
    }


def _install_ambient(state: Dict[str, Any]) -> None:
    from repro.kernel.pagestore import PAGE_STORE
    from repro.kernel.workcache import WORK_CACHE
    PAGE_STORE.install_state(state["pagestore"])
    WORK_CACHE.install_state(state["workcache"])


def _find_sim(root: Any) -> Any:
    """Best-effort discovery of the Simulator inside ``root`` (for
    quiescence diagnostics and snapshot metadata)."""
    from repro.sim.engine import Simulator
    if isinstance(root, Simulator):
        return root
    sim = getattr(root, "sim", None)
    if sim is not None and isinstance(sim, Simulator):
        return sim
    if isinstance(root, (tuple, list)):
        for item in root:
            found = _find_sim(item)
            if found is not None:
                return found
    return None


class Checkpoint:
    """One immutable snapshot; every :meth:`restore` is an independent
    fork.

    The payload is opaque pickled bytes; ``digest`` is its SHA-256 —
    two checkpoints of identical state taken in one process share a
    digest, which is what the experiment cache and the fork telemetry
    key on.  A Checkpoint is itself picklable, so parallel sweeps ship
    it to pool workers like any other argument.
    """

    __slots__ = ("payload", "digest", "label", "now", "seq", "pending")

    def __init__(self, payload: bytes, label: str = "",
                 now: Optional[float] = None, seq: Optional[int] = None,
                 pending: int = 0):
        self.payload = payload
        self.digest = hashlib.sha256(payload).hexdigest()
        self.label = label
        self.now = now
        self.seq = seq
        self.pending = pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Checkpoint({self.label or '<unnamed>'}, "
                f"{len(self.payload):,d} B, digest {self.digest[:12]}, "
                f"now={self.now}, seq={self.seq}, pending={self.pending})")

    def __reduce__(self):
        return (_rebuild_checkpoint,
                (self.payload, self.label, self.now, self.seq, self.pending))

    # -- forking --------------------------------------------------------

    def restore(self, install_ambient: bool = True) -> Any:
        """Materialize an independent copy of the snapshotted root.

        Each call is a fresh fork: restored objects share nothing with
        the original graph or with other forks.  With
        ``install_ambient`` (the default) the process-global page store
        and work cache are reset to their snapshotted state first, so
        the fork's intern/release accounting balances exactly as the
        warm-up left it — a sweep worker owns its process's ambient
        stores for the duration of the point.
        """
        try:
            root, ambient = pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {self.label!r} failed to restore: {exc!r} "
                "(corrupt payload, or a module moved since the snapshot "
                "was taken)") from exc
        if install_ambient:
            _install_ambient(ambient)
        CHECKPOINT_STATS.restores += 1
        return root

    # -- persistence ----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the snapshot to ``path`` (header + payload)."""
        meta = {"label": self.label, "now": self.now, "seq": self.seq,
                "pending": self.pending}
        with open(path, "wb") as fh:
            fh.write(_FILE_MAGIC)
            pickle.dump(meta, fh, protocol=PICKLE_PROTOCOL)
            fh.write(self.payload)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a snapshot previously written by :meth:`save`."""
        with open(path, "rb") as fh:
            magic = fh.read(len(_FILE_MAGIC))
            if magic != _FILE_MAGIC:
                raise CheckpointError(
                    f"{path}: not a repro checkpoint (bad magic "
                    f"{magic[:20]!r})")
            meta = pickle.load(fh)
            payload = fh.read()
        return cls(payload, label=meta["label"], now=meta["now"],
                   seq=meta["seq"], pending=meta["pending"])


def _rebuild_checkpoint(payload: bytes, label: str, now, seq,
                        pending: int) -> Checkpoint:
    return Checkpoint(payload, label=label, now=now, seq=seq,
                      pending=pending)


def snapshot(root: Any, label: str = "",
             include_ambient: bool = True) -> Checkpoint:
    """Snapshot ``root`` (a Platform, a Simulator, or any tuple of
    simulation objects sharing one Simulator) into a :class:`Checkpoint`.

    Raises :class:`~repro.errors.CheckpointError` when the graph holds
    live generator-based processes (or other unpicklable callbacks) —
    run the simulator to quiescence first.  Pending *generator-free*
    work (plain timers, ``Event.succeed`` deadlines, cancelled-timer
    tombstones) is carried and fires post-restore at exactly its
    original ``(time, seq)`` slot.
    """
    sim = _find_sim(root)
    ambient = _ambient_state() if include_ambient else {
        "pagestore": None, "workcache": None}
    try:
        payload = pickle.dumps((root, ambient), protocol=PICKLE_PROTOCOL)
    except (TypeError, AttributeError, pickle.PicklingError) as exc:
        pending = sim.pending_count if sim is not None else -1
        raise CheckpointError(
            f"cannot checkpoint {label or type(root).__name__!r}: {exc} — "
            "snapshots require a quiescent simulator (no live "
            "generator-based processes and no unpicklable callbacks in "
            f"the queues; {pending} entr(y/ies) pending).  Run the "
            "warm-up to completion (sim.run()) before checkpointing, "
            "and spawn the point's processes after restore."
        ) from exc
    stats = CHECKPOINT_STATS
    stats.snapshots += 1
    stats.snapshot_bytes += len(payload)
    if len(payload) > stats.largest_snapshot_bytes:
        stats.largest_snapshot_bytes = len(payload)
    return Checkpoint(
        payload, label=label,
        now=sim.now if sim is not None else None,
        seq=sim._seq if sim is not None else None,
        pending=sim.pending_count if sim is not None else 0)


def payload_summary(cp: Checkpoint, top: int = 8) -> str:
    """Operator-facing breakdown of what dominates a snapshot payload
    (``pickletools`` opcode walk; debugging aid, never on a hot path)."""
    counts: Dict[str, int] = {}
    last_global = "<root>"
    for opcode, arg, _pos in pickletools.genops(io.BytesIO(cp.payload)):
        if opcode.name in ("GLOBAL", "STACK_GLOBAL") and arg:
            last_global = str(arg).replace("\n", ".").replace(" ", ".")
        elif opcode.name in ("BINBYTES", "SHORT_BINBYTES", "BINBYTES8",
                             "BINUNICODE", "SHORT_BINUNICODE"):
            counts[last_global] = counts.get(last_global, 0) + len(arg or b"")
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    lines = [f"checkpoint {cp.label or '<unnamed>'}: "
             f"{len(cp.payload):,d} B total"]
    for name, nbytes in rows:
        lines.append(f"  {nbytes:>10,d} B near {name}")
    return "\n".join(lines)
