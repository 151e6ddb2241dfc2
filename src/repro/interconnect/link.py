"""Generic point-to-point link with serialization and propagation."""

from __future__ import annotations

import enum
from typing import Any, Generator

from repro.config import LinkConfig
from repro.errors import LinkError
from repro.faults import NO_FAULTS
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import Resource

# RAS timing (CXL 3.0 §6.2: link-layer retry is a NAK + replay from the
# sender's retry buffer; a hot reset retrains the physical layer).
CRC_REPLAY_LOGIC_NS = 10.0       # NAK decode + retry-buffer readout
LINK_HOT_RESET_NS = 20_000.0     # retrain window after a hot reset


class Direction(enum.Enum):
    """Transfer direction relative to the host."""

    TO_DEVICE = "down"    # host -> device (downstream)
    TO_HOST = "up"        # device -> host (upstream)


class Link:
    """Full-duplex link: each direction serializes independently.

    A message occupies its direction's wire for
    ``(payload + header) / rate`` and then takes ``propagation_ns`` to
    arrive; back-to-back messages pipeline (the wire frees as soon as the
    bits are pushed, before the flight completes).

    RAS behavior (inert unless a :class:`~repro.faults.FaultPlan` is
    armed or the link is explicitly failed): a ``link_crc`` fault makes
    the corrupted flit occupy the wire, pays a NAK round trip plus retry
    -buffer readout, and is then replayed — the message still arrives,
    late.  A dead link (:meth:`fail`) raises :class:`LinkError` at the
    sender; :meth:`hot_reset` revives it after a retrain window during
    which senders stall.
    """

    def __init__(self, sim: Simulator, cfg: LinkConfig):
        self.sim = sim
        self.cfg = cfg
        self._wires = {
            Direction.TO_DEVICE: Resource(sim, 1, f"{cfg.name}.down"),
            Direction.TO_HOST: Resource(sim, 1, f"{cfg.name}.up"),
        }
        self.messages = 0
        self.bytes_moved = 0
        self.faults = NO_FAULTS
        self.dead = False
        self._retrain_until = 0.0
        self.crc_replays = 0
        self.resets = 0
        self.stalled_messages = 0

    def send(self, direction: Direction,
             payload_bytes: int) -> Generator[Any, Any, None]:
        """Timed process: deliver one message in ``direction``."""
        self.messages += 1
        self.bytes_moved += payload_bytes
        ser = self.cfg.serialization_ns(payload_bytes)
        if self.dead or self.faults.active or self._retrain_until:
            yield from self._ras_gate(direction, ser)
        yield from self._wires[direction].using(ser)
        yield Timeout(self.cfg.propagation_ns)

    def _ras_gate(self, direction: Direction,
                  ser: float) -> Generator[Any, Any, None]:
        """Fault path of :meth:`send` (never entered when the link is
        healthy and no plan is armed)."""
        if self.dead:
            raise LinkError(f"link {self.cfg.name!r} is down")
        if self._retrain_until > self.sim.now:
            self.stalled_messages += 1
            yield Timeout(self._retrain_until - self.sim.now)
            if self.dead:     # died again while we were stalled
                raise LinkError(f"link {self.cfg.name!r} is down")
        if self.faults.check("link_crc"):
            # The corrupted attempt pushes its bits, then the receiver
            # NAKs and the sender replays from the retry buffer; send()
            # falls through to the (successful) replay.
            self.crc_replays += 1
            yield from self._wires[direction].using(ser)
            yield Timeout(2 * self.cfg.propagation_ns + CRC_REPLAY_LOGIC_NS)

    def fail(self) -> None:
        """Take the link down: every subsequent send raises
        :class:`LinkError` until :meth:`hot_reset`."""
        self.dead = True

    def hot_reset(self, retrain_ns: float = LINK_HOT_RESET_NS) -> None:
        """Revive (or bounce) the link; senders stall until the physical
        layer finishes retraining ``retrain_ns`` from now."""
        self.dead = False
        self.resets += 1
        self._retrain_until = max(self._retrain_until,
                                  self.sim.now + retrain_ns)

    def round_trip(self, request_bytes: int,
                   response_bytes: int) -> Generator[Any, Any, None]:
        """Request one way, response the other (no target think time)."""
        yield from self.send(Direction.TO_DEVICE, request_bytes)
        yield from self.send(Direction.TO_HOST, response_bytes)

    @property
    def min_round_trip_ns(self) -> float:
        """Analytic floor: two propagations + two minimal serializations."""
        return 2 * self.cfg.propagation_ns + 2 * self.cfg.serialization_ns(0)
