"""Statistics for the bulk line-stream fast-forward.

Turning the ``bulk`` flag off (:mod:`repro.flags`, ``REPRO_BULK=0``)
disables every batched path in the simulator; all models then walk their
per-line event chains.  The two modes are bit-exact by contract: every
batched path performs the identical left-to-right chain of float
additions its per-line twin would, and ``tests/equivalence`` diffs whole
experiment outputs both ways.

:data:`BULK_STATS` is a process-global counter block surfaced by
``repro speed`` — how many trains ran, how many lines they carried, and
why prospective trains fell back to the per-line path.  A kind names
the train family and op (``d2h/nc-rd``, ``d2d-serial/cs-rd``,
``h2d/nt-st``) or a command train's half (``cmd/submit-poll``,
``cmd/complete-nc-wr``, ``cmd/complete-nc-p``); ``docs/API.md`` lists
every kind and fallback reason.
"""

from __future__ import annotations

from typing import Dict


class BulkStats:
    """Counters for batched trains and their per-line fallbacks."""

    __slots__ = ("batches", "lines", "fallbacks")

    def __init__(self) -> None:
        self.batches: Dict[str, int] = {}
        self.lines: Dict[str, int] = {}
        self.fallbacks: Dict[str, int] = {}

    def reset(self) -> None:
        self.batches.clear()
        self.lines.clear()
        self.fallbacks.clear()

    def batch(self, kind: str, count: int) -> None:
        self.batches[kind] = self.batches.get(kind, 0) + 1
        self.lines[kind] = self.lines.get(kind, 0) + count

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    @property
    def total_batches(self) -> int:
        return sum(self.batches.values())

    @property
    def total_lines(self) -> int:
        return sum(self.lines.values())

    def snapshot(self) -> dict:
        return {
            "batches": dict(sorted(self.batches.items())),
            "lines": dict(sorted(self.lines.items())),
            "fallbacks": dict(sorted(self.fallbacks.items())),
            "total_batches": self.total_batches,
            "total_lines": self.total_lines,
        }


BULK_STATS = BulkStats()
