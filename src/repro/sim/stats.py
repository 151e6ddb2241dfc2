"""Measurement statistics used by the characterization harness.

The paper reports the **median** over >=1 K repetitions with standard
deviations as error bars, and p99 latency for the end-to-end experiments.
This module implements exactly those reductions.

Two latency recorders share one API (``record``/``count``/``p50``/
``p99``/``p999``/``mean``/``summary``):

* :class:`LatencyStats` — **exact**: keeps every sample and answers
  percentile queries from a cached sorted array.  The default, and the
  only mode the paper figures use — their outputs are byte-golden.
* :class:`StreamingLatencyStats` — **O(1) memory**: P² quantile
  estimators (Jain & Chlamtac 1985) for the three tail points plus
  exact running moments.  The ``stats`` flag (:mod:`repro.flags`,
  ``REPRO_STATS=stream``) switches :func:`latency_recorder`
  for scale runs whose sample counts would otherwise grow RSS without
  bound; accuracy tolerances are pinned in docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro import flags


@dataclass(frozen=True)
class Summary:
    """Median/mean/std summary of repeated measurements."""

    n: int
    median: float
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"median={self.median:.1f} mean={self.mean:.1f} "
            f"std={self.std:.1f} (n={self.n})"
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Reduce repeated measurements the way the paper does (median + std)."""
    if not len(samples):
        raise ValueError("cannot summarize zero samples")
    arr = np.asarray(samples, dtype=float)
    return Summary(
        n=len(arr),
        median=float(np.median(arr)),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def bandwidth_gbps(total_bytes: int, elapsed_ns: float) -> float:
    """Achieved bandwidth in GB/s (decimal) for a timed transfer."""
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed time must be positive: {elapsed_ns}")
    return total_bytes / elapsed_ns


class LatencyStats:
    """Exact latency recorder with percentile queries.

    Used by the end-to-end Redis experiments: clients record one sample per
    request, and the harness queries p50/p99/p999 at the end of the run.

    Percentile queries run against a cached sorted array; recording a new
    sample invalidates it.  The cache only changes *when* the list-to-array
    conversion and sort happen — ``np.percentile`` over the same values is
    bit-identical either way — so a p50/p99/p999 sweep over millions of
    samples pays the O(n log n) once instead of per query.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted: Optional[np.ndarray] = None

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self._samples.append(latency_ns)
        self._sorted = None

    def extend(self, samples: Iterable[float]) -> None:
        """Record ``samples`` in order; atomic like
        :meth:`StreamingLatencyStats.extend`."""
        batch = list(samples)
        for x in batch:
            if x < 0:
                raise ValueError(f"negative latency: {x}")
        if batch:
            self._samples.extend(batch)
            self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def __getstate__(self) -> dict:
        # Checkpoint hygiene: the sorted cache never travels.  Dropping
        # it keeps snapshot payloads lean and — more importantly — makes
        # a restored recorder *provably* rebuild from ``_samples``: a
        # carried cache of matching length would satisfy the staleness
        # heuristic in ``_sorted_array`` whether or not its contents
        # still corresponded to the samples.
        return {"_samples": self._samples}

    def __setstate__(self, state: dict) -> None:
        self._samples = state["_samples"]
        self._sorted = None

    def _sorted_array(self) -> np.ndarray:
        arr = self._sorted
        if arr is None or len(arr) != len(self._samples):
            arr = np.sort(np.asarray(self._samples, dtype=float))
            self._sorted = arr
        return arr

    def percentile(self, pct: float) -> float:
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(np.percentile(self._sorted_array(), pct))

    def percentile_or(self, pct: float, default: float = 0.0) -> float:
        """``percentile`` that answers ``default`` instead of raising on
        an empty recorder — for SLO reports over tenants that may have
        had every request shed."""
        if not self._samples:
            return default
        return self.percentile(pct)

    def p50(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def p999(self) -> float:
        return self.percentile(99.9)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(np.mean(self._sorted_array()))

    def summary(self) -> Summary:
        return summarize(self._samples)


class _P2Quantile:
    """One P² marker bank: streaming estimate of a single quantile in
    O(1) memory (Jain & Chlamtac, CACM 1985).

    Five markers track (min, q/2-ish, q, (1+q)/2-ish, max); each new
    observation shifts marker counts and nudges the middle heights by a
    piecewise-parabolic fit.  Pure float arithmetic — deterministic for
    a given sample order, which is all the simulator ever produces.
    """

    __slots__ = ("p", "_heights", "_pos", "_want", "_grow", "_n")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {p}")
        self.p = p
        self._heights: list[float] = []
        self._pos = [0, 1, 2, 3, 4]
        self._want = [0.0, 0.0, 0.0, 0.0, 0.0]
        self._grow = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        self._n = 0

    def add_many(self, xs: Sequence[float]) -> None:
        """Fold the samples ``xs``, in order, into the bank.

        One pass with the five heights, positions and targets held in
        locals.  The float operations and their order are those of the
        textbook per-sample update (the piecewise-parabolic nudge with
        its linear fallback, markers 1, 2, 3 in turn), so any split of a
        sample stream into batches leaves the identical bank state.
        """
        n = self._n
        start = 0
        if n < 5:
            start = min(5 - n, len(xs))
            self._heights.extend(xs[:start])
            n += start
            self._n = n
            if n < 5:
                return
            self._heights.sort()
            self._pos = [0, 1, 2, 3, 4]
            p = self.p
            self._want = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
        if start == len(xs):
            return
        q0, q1, q2, q3, q4 = self._heights
        n0, n1, n2, n3, n4 = self._pos
        w0, w1, w2, w3, w4 = self._want
        _, g1, g2, g3, g4 = self._grow
        for x in xs[start:]:
            if x < q0:
                q0 = x
                n1 += 1
                n2 += 1
                n3 += 1
            elif x >= q4:
                q4 = x
            elif x < q1:
                n1 += 1
                n2 += 1
                n3 += 1
            elif x < q2:
                n2 += 1
                n3 += 1
            elif x < q3:
                n3 += 1
            n4 += 1
            w1 += g1
            w2 += g2
            w3 += g3
            w4 += g4
            # Marker 1, between (q0, n0) and (q2, n2).
            d = w1 - n1
            if d >= 1.0 and n2 - n1 > 1:
                s = 1
            elif d <= -1.0 and n0 - n1 < -1:
                s = -1
            else:
                s = 0
            if s:
                h = q1 + s / (n2 - n0) * (
                    (n1 - n0 + s) * (q2 - q1) / (n2 - n1)
                    + (n2 - n1 - s) * (q1 - q0) / (n1 - n0))
                if q0 < h < q2:
                    q1 = h
                elif s == 1:
                    q1 = q1 + s * (q2 - q1) / (n2 - n1)
                else:
                    q1 = q1 + s * (q0 - q1) / (n0 - n1)
                n1 += s
            # Marker 2, between (q1, n1) and (q3, n3).
            d = w2 - n2
            if d >= 1.0 and n3 - n2 > 1:
                s = 1
            elif d <= -1.0 and n1 - n2 < -1:
                s = -1
            else:
                s = 0
            if s:
                h = q2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (q3 - q2) / (n3 - n2)
                    + (n3 - n2 - s) * (q2 - q1) / (n2 - n1))
                if q1 < h < q3:
                    q2 = h
                elif s == 1:
                    q2 = q2 + s * (q3 - q2) / (n3 - n2)
                else:
                    q2 = q2 + s * (q1 - q2) / (n1 - n2)
                n2 += s
            # Marker 3, between (q2, n2) and (q4, n4).
            d = w3 - n3
            if d >= 1.0 and n4 - n3 > 1:
                s = 1
            elif d <= -1.0 and n2 - n3 < -1:
                s = -1
            else:
                s = 0
            if s:
                h = q3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (q4 - q3) / (n4 - n3)
                    + (n4 - n3 - s) * (q3 - q2) / (n3 - n2))
                if q2 < h < q4:
                    q3 = h
                elif s == 1:
                    q3 = q3 + s * (q4 - q3) / (n4 - n3)
                else:
                    q3 = q3 + s * (q2 - q3) / (n2 - n3)
                n3 += s
        self._heights = [q0, q1, q2, q3, q4]
        self._pos = [n0, n1, n2, n3, n4]
        self._want = [w0, w1, w2, w3, w4]
        self._n = n + len(xs) - start

    def value(self) -> float:
        if self._n == 0:
            raise ValueError("no samples recorded")
        heights = self._heights
        if self._n < 5:
            # Too few points for the marker bank: exact quantile of what
            # we have (same linear interpolation numpy uses).
            srt = sorted(heights)
            rank = self.p * (len(srt) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(srt) - 1)
            return srt[lo] + (srt[hi] - srt[lo]) * (rank - lo)
        return heights[2]

    # -- merging -----------------------------------------------------------

    @staticmethod
    def _cdf_at(heights: Sequence[float], fracs: Sequence[float],
                x: float) -> float:
        """The bank's piecewise-linear sketch CDF at ``x``: linear
        between markers, 0 below the min, 1 above the max.  Zero-width
        segments (duplicate heights) step to the right-hand fraction."""
        if x <= heights[0]:
            return 0.0
        if x >= heights[-1]:
            return 1.0
        for i in range(len(heights) - 1):
            if x <= heights[i + 1]:
                lo, hi = heights[i], heights[i + 1]
                if hi == lo:
                    return fracs[i + 1]
                return fracs[i] + (fracs[i + 1] - fracs[i]) * \
                    (x - lo) / (hi - lo)
        return 1.0  # pragma: no cover - unreachable (x < heights[-1])

    def _adopt(self, other: "_P2Quantile") -> None:
        self._heights = list(other._heights)
        self._pos = list(other._pos)
        self._want = list(other._want)
        self._n = other._n

    def merge(self, other: "_P2Quantile") -> None:
        """Combine ``other``'s state into this bank.

        Three regimes, each deterministic for a given pair of states:

        * either side has fewer than 5 samples — its raw samples are
          replayed through :meth:`add_many` (exact);
        * both banks are live — the merged markers are read off the
          **count-weighted mixture** of the two piecewise-linear sketch
          CDFs, inverted at the canonical marker fractions
          ``(0, p/2, p, (1+p)/2, 1)``.  The inversion is exact *for the
          sketches*, so the merged estimate inherits only the input
          banks' own P² error (plus the piecewise-linear interpolation
          already inherent in P²): no new error term grows with the
          number of merges beyond the banks' sketch error.  The
          end markers stay the exact running min/max.

        The merged ``_pos``/``_want`` are reset to their ideal values
        for the combined count, as if the bank had converged there —
        the same state a long-running bank trends toward.  Empirical
        accuracy against the exact pooled percentile is pinned in
        ``tests/sim/test_stats_merge.py``: well under 1 % relative on
        p50, but roughly 10 % worst-case on p99/p999 for the
        exponential-tailed populations the rack merges — two 5-marker
        piecewise-linear sketches simply carry little resolution beyond
        their outermost markers, so tail error is dominated by the
        input banks' own sketch error plus the mixture interpolation.
        Consumers that need tight merged tails (none in-tree today)
        should track the tail point directly as an extra quantile.
        """
        if other.p != self.p:
            raise ValueError(
                f"cannot merge banks for different quantiles: "
                f"{self.p} vs {other.p}")
        if other._n == 0:
            return
        if self._n == 0:
            self._adopt(other)
            return
        if other._n < 5:
            # Raw samples on the right: replay them (exact).
            self.add_many(list(other._heights))
            return
        if self._n < 5:
            # Raw samples on the left: replay into a copy of the bank.
            merged = _P2Quantile(self.p)
            merged._adopt(other)
            merged.add_many(list(self._heights))
            self._adopt(merged)
            return
        wa, wb = self._n, other._n
        tot = wa + wb
        fracs = self._grow
        knots = sorted(set(self._heights) | set(other._heights))
        mix = [(wa * self._cdf_at(self._heights, fracs, x)
                + wb * self._cdf_at(other._heights, fracs, x)) / tot
               for x in knots]
        heights = []
        for target in fracs:
            if target <= mix[0]:
                heights.append(knots[0])
                continue
            if target >= mix[-1]:
                heights.append(knots[-1])
                continue
            j = 0
            while mix[j + 1] < target:
                j += 1
            lo_f, hi_f = mix[j], mix[j + 1]
            lo_x, hi_x = knots[j], knots[j + 1]
            if hi_f == lo_f:
                heights.append(hi_x)
            else:
                heights.append(lo_x + (hi_x - lo_x) *
                               (target - lo_f) / (hi_f - lo_f))
        # Exact extremes survive the mixture by construction (the
        # mixture CDF is 0/1 exactly at the combined min/max).
        heights[0] = min(self._heights[0], other._heights[0])
        heights[4] = max(self._heights[4], other._heights[4])
        for i in range(1, 5):
            if heights[i] < heights[i - 1]:
                heights[i] = heights[i - 1]
        # Ideal marker positions/targets for the combined count, kept
        # strictly increasing (the update rules divide by pos gaps).
        pos = [int(round((tot - 1) * g)) for g in self._grow]
        pos[0], pos[4] = 0, tot - 1
        for i in (1, 2, 3):
            pos[i] = max(pos[i], pos[i - 1] + 1)
        for i in (3, 2, 1):
            pos[i] = min(pos[i], pos[i + 1] - 1)
        p = self.p
        base_want = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
        self._heights = heights
        self._pos = pos
        self._want = [base_want[i] + (tot - 5) * self._grow[i]
                      for i in range(5)]
        self._n = tot


class StreamingLatencyStats:
    """O(1)-memory drop-in for :class:`LatencyStats` on scale runs.

    Tracks P² estimators for the recorder's tail points (p50/p99/p999 by
    default) plus *exact* running count/mean/variance/min/max — only the
    percentile values are approximate.  ``percentile`` answers solely
    for the tracked points; anything else raises, loudly, rather than
    silently extrapolating.
    """

    #: quantiles every recorder tracks (match LatencyStats's query trio)
    DEFAULT_QUANTILES = (0.50, 0.99, 0.999)

    def __init__(self,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self._marks = {round(q * 100.0, 6): _P2Quantile(q)
                       for q in quantiles}
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def record(self, latency_ns: float) -> None:
        self.extend((latency_ns,))

    def extend(self, samples: Iterable[float]) -> None:
        """Record ``samples`` in order: one moments pass, then one
        :meth:`_P2Quantile.add_many` per bank.  Atomic: a negative
        sample raises ``ValueError`` before anything is recorded."""
        batch = samples if isinstance(samples, (list, tuple)) \
            else list(samples)
        count, mean, m2 = self._count, self._mean, self._m2
        lo, hi = self._min, self._max
        for x in batch:
            if x < 0:
                raise ValueError(f"negative latency: {x}")
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if x < lo:
                lo = x
            if x > hi:
                hi = x
        self._count, self._mean, self._m2 = count, mean, m2
        self._min, self._max = lo, hi
        for mark in self._marks.values():
            mark.add_many(batch)

    def merge(self, other: "StreamingLatencyStats") -> "StreamingLatencyStats":
        """Fold ``other``'s state into this recorder (and return self).

        Count/mean/M2 combine exactly (Chan et al.'s parallel variance
        update), min/max exactly; each P² bank merges via
        :meth:`_P2Quantile.merge` — see its docstring for the error
        contract.  Merging is associative-in-practice but *ordered*
        (float rounding and marker interpolation differ with order), so
        callers that need byte-stable output must merge in a fixed
        order; the rack merges shard recorders in shard-id order.
        """
        if set(self._marks) != set(other._marks):
            raise ValueError(
                f"recorders track different quantiles: "
                f"{sorted(self._marks)} vs {sorted(other._marks)}")
        if other._count == 0:
            return self
        n1, n2 = self._count, other._count
        tot = n1 + n2
        if n1 == 0:
            self._mean, self._m2 = other._mean, other._m2
        else:
            delta = other._mean - self._mean
            self._m2 = self._m2 + other._m2 + delta * delta * n1 * n2 / tot
            self._mean = self._mean + delta * n2 / tot
        self._count = tot
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for key, mark in self._marks.items():
            mark.merge(other._marks[key])
        return self

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, pct: float) -> float:
        if self._count == 0:
            raise ValueError("no samples recorded")
        mark = self._marks.get(round(float(pct), 6))
        if mark is None:
            tracked = sorted(self._marks)
            raise ValueError(
                f"streaming recorder only tracks percentiles {tracked}; "
                f"got {pct!r} — use exact LatencyStats for ad-hoc queries")
        return float(mark.value())

    def percentile_or(self, pct: float, default: float = 0.0) -> float:
        """``percentile`` that answers ``default`` instead of raising on
        an empty recorder (untracked points still raise, loudly)."""
        if self._count == 0:
            return default
        return self.percentile(pct)

    def p50(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def p999(self) -> float:
        return self.percentile(99.9)

    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples recorded")
        return self._mean

    def summary(self) -> Summary:
        if self._count == 0:
            raise ValueError("cannot summarize zero samples")
        std = (self._m2 / self._count) ** 0.5 if self._count else 0.0
        return Summary(
            n=self._count,
            median=self.percentile(50.0),
            mean=self._mean,
            std=std,
            minimum=self._min,
            maximum=self._max,
        )


LatencyRecorder = Union[LatencyStats, StreamingLatencyStats]


def latency_recorder() -> LatencyRecorder:
    """Build the ambient-mode latency recorder.

    Exact mode is the default — every paper figure stays byte-golden.
    ``REPRO_STATS=stream`` swaps in :class:`StreamingLatencyStats` for
    runs whose request counts would otherwise hold every sample live.
    """
    if flags.get("stats") == "stream":
        return StreamingLatencyStats()
    return LatencyStats()
