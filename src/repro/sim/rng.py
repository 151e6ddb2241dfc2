"""Seeded randomness for deterministic simulations.

Every stochastic choice in the library draws from a
:class:`DeterministicRng` created from an explicit seed, so repeated runs
(and CI) see identical event orders and identical measurements.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class DeterministicRng:
    """Thin, purpose-named wrapper over ``numpy.random.Generator``.

    The wrapper exists so models express *intent* (``jitter``,
    ``random_cacheline``) instead of raw distribution calls, and so a
    stream can be forked per subsystem without correlated draws.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream (stable across runs).

        Pure: forking never advances this stream, so construction-time
        forks can be reordered (e.g. split across a checkpointed warm-up
        and a restored point) without perturbing any draw.
        """
        return DeterministicRng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        """The full bit-generator state (position included), for
        checkpoint tests that pin stream continuity across a restore.
        Ordinary pickling already round-trips this implicitly."""
        return {"seed": self.seed,
                "bit_generator": self._gen.bit_generator.state}

    def install_state(self, state: dict) -> None:
        """Rewind/advance this stream to a captured :meth:`state`."""
        self.seed = int(state["seed"])
        self._gen.bit_generator.state = state["bit_generator"]

    # -- draws -------------------------------------------------------------

    def jitter(self, base: float, rel_std: float) -> float:
        """A positive latency sample: ``base`` with relative gaussian noise.

        Negative samples are clamped to 10 % of base, keeping latencies
        physical while preserving the configured spread for error bars.
        """
        if rel_std <= 0:
            return base
        sample = self._gen.normal(base, base * rel_std)
        return max(sample, base * 0.1)

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def random_cachelines(self, count: int, region_lines: int) -> np.ndarray:
        """``count`` distinct random cache-line indices within a region.

        Falls back to sampling with replacement when the region is smaller
        than the request (mirrors wrap-around in the microbenchmark).
        """
        if count <= region_lines:
            return self._gen.choice(region_lines, size=count, replace=False)
        return self._gen.integers(0, region_lines, size=count)

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)

    def choice(self, items: list):
        return items[int(self._gen.integers(0, len(items)))]

    def random_bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    def random(self) -> float:
        return float(self._gen.random())

    # -- vector draws ------------------------------------------------------
    # Batched variants for per-epoch request serving (repro.rack): one
    # generator call per epoch instead of one per request.  Each consumes
    # exactly ``size`` draws regardless of parameter values, so stream
    # positions stay aligned across code paths.

    def random_array(self, size: int) -> np.ndarray:
        """``size`` uniform floats in ``[0, 1)``."""
        return self._gen.random(size)

    def integers_array(self, low: int, high: int, size: int) -> np.ndarray:
        """``size`` uniform integers in ``[low, high)``."""
        return self._gen.integers(low, high, size=size)

    def exponential_array(self, mean: float, size: int) -> np.ndarray:
        """``size`` exponential interarrival samples."""
        return self._gen.exponential(mean, size)

    def jitter_array(self, base: np.ndarray, rel_std: float) -> np.ndarray:
        """Vector :meth:`jitter`: one positive sample per element of
        ``base``, with the same 10 %-of-base clamp."""
        base = np.asarray(base, dtype=float)
        if rel_std <= 0:
            return base.copy()
        sample = self._gen.normal(base, base * rel_std)
        return np.maximum(sample, base * 0.1)


#: Draws per :class:`ExponentialStream` refill.
EXP_BLOCK = 512

_EMPTY = np.empty(0, dtype=float)
_EMPTY.flags.writeable = False


class ExponentialStream:
    """Exponential draws served from pre-drawn blocks of one stream.

    The stream must be the only consumer of ``rng``: it pulls
    ``standard_exponential(block)`` ahead of use, and ``mean * e`` for
    each buffered ``e`` equals a scalar ``rng.exponential(mean)`` draw,
    so the values are exactly the successive scalar draws, whatever
    the block size or the means.  The buffer pickles with the stream,
    so a checkpoint taken mid-block resumes identically.
    """

    def __init__(self, rng: DeterministicRng, block: int = EXP_BLOCK):
        if block < 1:
            raise ValueError(f"block must be positive: {block}")
        self._gen = rng._gen
        self._block = block
        self._buf = _EMPTY
        self._i = 0

    def _refill(self) -> None:
        self._buf = self._gen.standard_exponential(self._block)
        self._i = 0

    def draw(self, mean: float) -> float:
        """The next ``exponential(mean)`` draw."""
        if self._i == len(self._buf):
            self._refill()
        e = self._buf[self._i]
        self._i += 1
        return float(mean * e)

    def window(self, nxt: float, end: float,
               mean: float) -> Tuple[np.ndarray, float]:
        """Serve a Poisson process over ``[nxt, end)``.

        ``nxt`` is the pending arrival.  Returns the arrivals before
        ``end`` and the new pending arrival, equal element for element
        to the loop ``while nxt < end: out.append(nxt); nxt +=
        draw(mean)`` (``cumsum`` adds left to right, as the loop does).
        """
        if not nxt < end:
            return _EMPTY, nxt
        parts = []
        while True:
            if self._i == len(self._buf):
                self._refill()
            steps = mean * self._buf[self._i:]
            sums = np.cumsum(np.concatenate(([nxt], steps)))
            k = int(np.searchsorted(sums, end))
            if k < len(sums):
                parts.append(sums[:k])
                self._i += k
                nxt = float(sums[k])
                break
            parts.append(sums[:-1])
            self._i = len(self._buf)
            nxt = float(sums[-1])
        arrivals = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return arrivals, nxt
