"""YCSB workload generators (SVII, Benchmark).

The paper uses four of the core YCSB workloads against Redis with a
uniform key distribution:

=====  ===========================  ==========================
name   mix                          paper label
=====  ===========================  ==========================
``a``  50 % read / 50 % update      update heavy
``b``  95 % read / 5 % update       read heavy
``c``  100 % read                   read only
``d``  95 % read / 5 % insert       read latest
=====  ===========================  ==========================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import WorkloadError
from repro.sim.rng import DeterministicRng


class YcsbOp(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"


@dataclass(frozen=True)
class WorkloadMix:
    name: str
    description: str
    read: float
    update: float
    insert: float

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix of {self.name} sums to {total}")


WORKLOADS = {
    "a": WorkloadMix("a", "update heavy", read=0.50, update=0.50, insert=0.0),
    "b": WorkloadMix("b", "read heavy", read=0.95, update=0.05, insert=0.0),
    "c": WorkloadMix("c", "read only", read=1.0, update=0.0, insert=0.0),
    "d": WorkloadMix("d", "read latest", read=0.95, update=0.0, insert=0.05),
}


class YcsbRequest(NamedTuple):
    op: YcsbOp
    key: str
    value_size: int = 0


class ZipfianGenerator:
    """Bounded zipfian keys, the standard YCSB algorithm (Gray et al.).

    YCSB's default request distribution; the paper opts for uniform, but
    both are provided so skewed-popularity studies are possible.
    """

    def __init__(self, items: int, rng: DeterministicRng,
                 theta: float = 0.99):
        if items < 1:
            raise WorkloadError("zipfian needs at least one item")
        if not 0 < theta < 1:
            raise WorkloadError(f"zipfian theta out of range: {theta}")
        self.items = items
        self.rng = rng
        self.theta = theta
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, items + 1))
        self._zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1.0 - (2.0 / items) ** (1.0 - theta))
                     / (1.0 - self._zeta2 / self._zetan))

    def next_index(self) -> int:
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._zeta2:
            return 1
        return int(self.items
                   * (self._eta * u - self._eta + 1.0) ** self._alpha)


class YcsbWorkload:
    """Generates YCSB requests.

    ``distribution`` selects the key popularity: ``uniform`` (the
    paper's choice, SVII) or ``zipfian`` (YCSB's default skew).
    """

    def __init__(self, name: str, rng: DeterministicRng,
                 record_count: int = 100_000, value_size: int = 100,
                 distribution: str = "uniform"):
        if name not in WORKLOADS:
            raise WorkloadError(
                f"unknown YCSB workload {name!r}; choose from {sorted(WORKLOADS)}")
        if distribution not in ("uniform", "zipfian"):
            raise WorkloadError(f"unknown distribution {distribution!r}")
        self.mix = WORKLOADS[name]
        self.rng = rng
        self.record_count = record_count
        self.value_size = value_size
        self.distribution = distribution
        self._zipf = (ZipfianGenerator(record_count, rng)
                      if distribution == "zipfian" else None)
        self._inserted = record_count

    def _pick_key(self) -> str:
        if self._zipf is not None:
            return f"user{min(self._zipf.next_index(), self._inserted - 1)}"
        return f"user{self.rng.randint(0, self._inserted)}"

    def next_request(self) -> YcsbRequest:
        draw = self.rng.random()
        if draw < self.mix.read:
            return YcsbRequest(YcsbOp.READ, self._pick_key())
        if draw < self.mix.read + self.mix.update:
            return YcsbRequest(YcsbOp.UPDATE, self._pick_key(),
                               self.value_size)
        key = f"user{self._inserted}"
        self._inserted += 1
        return YcsbRequest(YcsbOp.INSERT, key, self.value_size)

    def requests(self, count: int) -> Iterator[YcsbRequest]:
        for __ in range(count):
            yield self.next_request()

    def make_value(self) -> bytes:
        return self.rng.random_bytes(self.value_size)
