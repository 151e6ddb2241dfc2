"""Per-sample P² reference: the textbook one-observation update.

:class:`~repro.sim.stats._P2Quantile` folds a whole batch per call
(``add_many``), with the marker state held in locals.  This module keeps
the straightforward per-sample form it must match bit for bit —
``add`` with its ``_parabolic``/``_linear`` helpers, and a recorder
whose ``record`` runs the moments update and then each bank's ``add``
once per sample.  Every bank and recorder field must compare ``==`` to
the fused path's, for any split of the sample stream into batches.

The replay branches of ``merge`` (a side with fewer than 5 samples) are
kept here too, so that merging oracle-fed recorders never runs the
fused update.  The mixture branch is shared code.
"""

from __future__ import annotations

from repro.sim.stats import StreamingLatencyStats, _P2Quantile


class OracleP2Quantile(_P2Quantile):
    """A P² bank updated one observation at a time."""

    __slots__ = ()

    def add(self, x: float) -> None:
        self._n += 1
        heights = self._heights
        if self._n <= 5:
            heights.append(x)
            if self._n == 5:
                heights.sort()
                self._pos = [0, 1, 2, 3, 4]
                p = self.p
                self._want = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
            return
        pos = self._pos
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        elif x < heights[1]:
            k = 0
        elif x < heights[2]:
            k = 1
        elif x < heights[3]:
            k = 2
        else:
            k = 3
        for i in range(k + 1, 5):
            pos[i] += 1
        want = self._want
        grow = self._grow
        for i in range(1, 5):
            want[i] += grow[i]
        for i in (1, 2, 3):
            d = want[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1) or \
               (d <= -1.0 and pos[i - 1] - pos[i] < -1):
                step = 1 if d >= 1.0 else -1
                h = self._parabolic(i, step)
                if heights[i - 1] < h < heights[i + 1]:
                    heights[i] = h
                else:
                    heights[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._heights, self._pos
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))

    def _linear(self, i: int, d: int) -> float:
        q, n = self._heights, self._pos
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    def merge(self, other: "_P2Quantile") -> None:
        if self._n and 0 < other._n < 5:
            for x in list(other._heights):
                self.add(x)
            return
        if other._n >= 5 and 0 < self._n < 5:
            merged = OracleP2Quantile(self.p)
            merged._adopt(other)
            for x in list(self._heights):
                merged.add(x)
            self._adopt(merged)
            return
        super().merge(other)


class OracleStreamingStats(StreamingLatencyStats):
    """A streaming recorder fed one sample at a time."""

    def __init__(self) -> None:
        super().__init__()
        self._marks = {key: OracleP2Quantile(mark.p)
                       for key, mark in self._marks.items()}

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self._count += 1
        delta = latency_ns - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (latency_ns - self._mean)
        if latency_ns < self._min:
            self._min = latency_ns
        if latency_ns > self._max:
            self._max = latency_ns
        for mark in self._marks.values():
            mark.add(latency_ns)

    def extend(self, samples) -> None:
        # The per-sample reference is what this class exists to be.
        for sample in samples:  # reprolint: disable=PERF408
            self.record(sample)
