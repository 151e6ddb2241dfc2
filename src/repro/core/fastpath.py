"""Exact-replay bulk fast-forward for homogeneous line streams.

The streaming paths of Fig 3-6 — an LSU pulling K host or device
lines, a host core loading or storing K device lines, a remote-socket
core loading or storing K host lines over UPI — walk ~20 engine events
*per 64 B line*.
For a provably homogeneous train those event chains are pure arithmetic:
every FIFO stage grants either at the arrival float or at the previous
holder's release float (an unmodified hand-off), and every ``Timeout``
is exactly one ``now + delta`` addition.  This module replays that
arithmetic eagerly at train-start time, performs the real side effects
(cache lookups/fills/state changes, counters, link/channel statistics,
latency-noise draws) in the per-line commit order, and lands the caller
on the final timestamp with a single :class:`~repro.sim.engine.WakeAt`.

Bit-exactness rests on three pillars:

* **identical float chains** — the replay performs the same additions in
  the same association order the per-line generators would, so every
  timestamp (and therefore every downstream jitter draw) is the same
  IEEE double;
* **eligibility, not hope** — a train engages only when the pre-scan
  *proves* homogeneity: bulk enabled, no armed faults or sanitizers, no
  poison in flight, no other train's replay in flight, all shared
  resources idle, distinct addresses, and one uniform branch through
  the coherence machinery for every line.  Anything else falls back to
  the per-line path and is counted in
  :data:`~repro.sim.bulk.BULK_STATS`;
* **deferred noise draws** — per-line latency jitter is drawn at each
  line's completion.  A train performs its lines' draws when it
  resumes, in completion order; nothing else draws from the owner's
  stream inside the train's window, so the RNG stream is preserved
  exactly.  From :data:`VECTOR_DRAWS` draws up, they are one vector
  draw, which equals the successive scalar draws element for element
  and leaves the same generator state.

A train is one caller's whole stream: a caller with several transfers
in flight at once (Fig 6's pipelined ``depth``) hands them over as one
stream of lines.

Background work (posted-write drains, dirty-victim writebacks) is
posted to per-channel write-queue ledgers (:meth:`_Ledgers.post`) and
covered by ghosts (:func:`_hold` entries) so the simulation clock ends
on the same final timestamp as the per-line run.  That includes the
writebacks of the dirty victims a batched DMC prime evicted: a d2d or
H2D train takes them as ``writebacks`` and posts them ahead of its own
lines (:func:`try_lsu_d2d_train`).

**Stage order.**  An LSU train's lines reach every shared stage in line
order, which the d2h and d2d paths guarantee.  An H2D or emulated-D2H
load, or an ordered store, meets its return wire after a memory
channel, so a line held up at a busy channel is overtaken; the H2D and
remote builders replay their lines' stage arrivals from a heap in the
engine's own order (:func:`_replay`): by time, then by when each
arrival was scheduled, back to the first difference.

Every builder also has a **serial mode** for dependent accesses — the
microbenchmark's latency phase, where each access runs alone to
completion via ``sim.run_process`` and the simulator drains between
accesses.  The same per-line loop replays it with three changes: line
*i* is granted at line *i-1*'s drain end ``max(c, bg_end)`` instead of
a window slot (every stage-free float and write-queue entry is then at
or below the grant, so the existing ``max`` picks reproduce an idle
pipeline); its raw latency is measured from that grant; and the clock
lands on the last line's drain end.  A serial train needs a quiescent
simulator too.

**Command trains** replay a cxl offload command's doorbell handshake
(:func:`try_command_head`: submit and poll; :func:`try_command_tail`:
result push and completion read) when the command starts on a quiescent
simulator.  There the handshake is the only foreground work, so its
DMC accesses and the posted writes' DMC checks are ordered by their own
floats and applied at build time.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro import flags
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.devices.dcoh import HOST_BIAS_WRITE_GAP_EXTRA_NS
from repro.errors import DeviceError, SimulationError
from repro.faults import NO_FAULTS
from repro.host.home_agent import upi_costs
from repro.interconnect import upi
from repro.interconnect.cxl import ACK_BYTES, DATA_BYTES, REQ_BYTES
from repro.mem.coherence import LineState
from repro.sim.bulk import BULK_STATS
from repro.sim.engine import WakeAt
from repro.units import CACHELINE

# Below this, per-line cost is negligible and a train buys nothing.
MIN_TRAIN_LINES = 2

# Deferred draws from which a train draws its jitter as one vector.
# Measured on a 2-vCPU x86-64 host (CPython 3.11, numpy Generator):
# scalar draws cost 6.7 us for 4, 13 us for 10 and 112 us for 64; the
# vector draw costs 14-16 us up to 10 and 22 us for 64.  They cross
# between 10 and 12 draws.
VECTOR_DRAWS = 12

_D2H_OPS = (D2HOp.NC_READ, D2HOp.CS_READ, D2HOp.NC_WRITE, D2HOp.NC_P)

_D2D_READS = (D2HOp.NC_READ, D2HOp.CS_READ, D2HOp.CO_READ)
_D2D_OPS = _D2D_READS + (D2HOp.NC_WRITE, D2HOp.CO_WRITE)


class _ChannelLedger:
    """Per-channel posted-write queue replayed as arithmetic.

    Mirrors :meth:`repro.mem.memctrl.MemoryChannel.write_line` exactly:
    an enqueue is granted at its arrival while the queue has room
    (slots freed by drains that completed at or before the arrival),
    otherwise at the earliest outstanding drain-completion float (FIFO
    slot hand-off, no arithmetic); each drain ends at
    ``max(enqueue_end, prev_drain_end) + drain_ns`` where the max picks
    an unmodified float.
    """

    __slots__ = ("cap", "enq", "drain", "pending", "d_prev")

    def __init__(self, channel: Any):
        cfg = channel.cfg
        self.cap = cfg.write_queue_entries
        self.enq = cfg.write_enqueue_ns
        self.drain = cfg.drain_ns_per_line()
        self.pending: deque = deque()   # drain-end floats, oldest first
        self.d_prev = 0.0

    def copy(self) -> "_ChannelLedger":
        other = object.__new__(_ChannelLedger)
        other.cap, other.enq, other.drain = self.cap, self.enq, self.drain
        other.pending = deque(self.pending)
        other.d_prev = self.d_prev
        return other

    def write(self, arrival: float) -> Tuple[float, float]:
        """Post one line at ``arrival``; return (enqueue_end, drain_end)."""
        pending = self.pending
        while pending and pending[0] <= arrival:
            pending.popleft()           # that slot freed before we arrived
        if len(pending) < self.cap:
            grant = arrival
        else:
            grant = pending.popleft()   # direct hand-off at the drain end
        e = grant + self.enq
        d = (e if self.d_prev <= e else self.d_prev) + self.drain
        self.d_prev = d
        pending.append(d)
        return e, d


class _Ledgers(dict):
    """A platform's write-queue ledgers, one per memory channel.

    A channel's posted-write queue is one physical queue, so every train
    and command train replays it through the same ledger.  A ledger
    whose floats all lie at or before ``now`` behaves like an idle
    queue, so a ledger outlives the trains that charged it.  ``end`` is
    the latest drain end the replay being built has posted: the time
    its ghost holds the clock to, and a serial line's grant."""

    def __init__(self) -> None:
        super().__init__()
        self.end = 0.0

    def __missing__(self, channel: Any) -> _ChannelLedger:
        ledger = self[channel] = _ChannelLedger(channel)
        return ledger

    def post(self, channels: List[Any], addr: int, arrival: float) -> float:
        """Post a write of line ``addr`` to its channel of ``channels`` at
        ``arrival``: count it, replay the channel's queue and keep the
        running drain end.  Returns the enqueue end."""
        ch = channels[(addr // CACHELINE) % len(channels)]
        ch.writes += 1
        e, d = self[ch].write(arrival)
        if d > self.end:
            self.end = d
        return e


def _ledgers(p: Any, now: float) -> _Ledgers:
    """``p``'s ledgers, opened for a replay that starts at ``now``."""
    ledgers = getattr(p, "_bulk_ledgers", None)
    if ledgers is None:
        ledgers = p._bulk_ledgers = _Ledgers()
    ledgers.end = now
    return ledgers


class _LiveTrain:
    """The train whose replay is in flight.

    Until ``horizon``, its last foreground or background end, the
    replay's arithmetic holds every resource its lines queue on.
    ``drawn`` turns true once the train has drawn its lines' jitter."""

    __slots__ = ("horizon", "drawn")

    def __init__(self, horizon: float):
        self.horizon = horizon
        self.drawn = False


def _live_train(p: Any) -> Optional[_LiveTrain]:
    live = getattr(p, "_bulk_train", None)
    if live is not None and p.sim.now >= live.horizon:
        p._bulk_train = live = None
    return live


def _static_block_reason(p: Any) -> Optional[str]:
    """Platform-wide conditions under which no train may ever run."""
    if not flags.sample("bulk"):
        return "disabled"
    if p.coherence_sanitizer is not None or p.race_detector is not None:
        return "sanitizers"
    if getattr(p.sim, "race_detector", None) is not None:
        return "sanitizers"
    dcoh = p.t2.dcoh
    if dcoh.viral:
        return "viral"
    link = p.t2.port.link
    if link.dead or link.faults is not NO_FAULTS or link._retrain_until:
        return "link-ras"
    if (p.faults is not NO_FAULTS
            or p.home.mem.faults is not NO_FAULTS
            or p.t2.dev_mem.faults is not NO_FAULTS
            or p.home.mem.poisoned or p.t2.dev_mem.poisoned
            or dcoh._poisoned_writebacks):
        return "faults"
    return None


def _refuse(reason: str) -> None:
    """Count a refusal; a disabled fast path is not a fallback."""
    if reason != "disabled":
        BULK_STATS.fallback(reason)


def _all_idle(resources: List[Any]) -> bool:
    for r in resources:
        if r._in_use or r._waiters:
            return False
    return True


def quiescent(p: Any) -> bool:
    """Whether ``p``'s simulator has nothing queued.

    Eligibility inspects resources, which cannot see work that is queued
    but not yet started (dirty-victim writebacks spawned while priming a
    cache).  A caller that starts a train from a drained state checks
    this first; a refusal with bulk on counts as the ``pending``
    fallback."""
    if p.sim.quiescent:
        return True
    if flags.sample("bulk"):
        BULK_STATS.fallback("pending")
    return False


def _refusal(p: Any, addrs: List[int], serial: bool,
             resources: Callable[[], List[Any]]) -> Optional[str]:
    """Why no line train over ``addrs`` may start now, or None.

    The checks every line builder shares: the static checks, distinct
    addresses, no other train's replay in flight, a quiescent simulator
    for a serial train, and every shared ``resources`` idle."""
    reason = _static_block_reason(p)
    if reason is not None:
        return reason
    if len(set(addrs)) != len(addrs):
        return "dup-addrs"
    if _live_train(p) is not None:
        return "busy"
    if serial and not p.sim.quiescent:
        return "pending"
    if not _all_idle(resources()):
        return "busy"
    return None


def _lsu_resources(p: Any, family: str, channels: List[Any]) -> List[Any]:
    """Every shared resource an LSU train's lines can queue on.

    The resources are fixed at construction, so the list is built once
    per platform, family and LSU count, and kept on the platform."""
    t2 = p.t2
    built = getattr(p, "_bulk_resources", None)
    if built is None:
        built = p._bulk_resources = {}
    key = (family, len(t2._extra_lsus))
    resources = built.get(key)
    if resources is None:
        lsu = t2.lsu
        resources = [lsu._window, lsu._issue, t2.dcoh._write_pipe]
        resources += [extra._window for extra in t2._extra_lsus]
        resources += list(t2.port.link._wires.values())
        for ch in channels:
            resources += [ch._wq, ch._drain, ch._read_bw]
        built[key] = resources
    return resources


def _core_resources(window: Any, link: Any,
                    channels: List[Any]) -> List[Any]:
    """Every shared resource a host core's train can queue on: its
    window, the link's wires and the target memory's channels."""
    out = [window, *link._wires.values()]
    for ch in channels:
        out += [ch._wq, ch._drain, ch._read_bw]
    return out


def _unexpected_writeback(addr: int) -> None:
    raise SimulationError(
        f"bulk train evicted a dirty line ({hex(addr)}) the eligibility "
        "pre-scan promised could not exist")


@lru_cache(maxsize=None)
def _wire_ns(lcfg: Any, req: int = REQ_BYTES,
             ack: int = ACK_BYTES) -> Tuple[float, float, float, float]:
    """Serialization time of a request, a request with data, a data
    message and an ack on a link with config ``lcfg``, whose requests
    and acks carry ``req`` and ``ack`` bytes (CXL's by default)."""
    return (lcfg.serialization_ns(req),
            lcfg.serialization_ns(req + DATA_BYTES),
            lcfg.serialization_ns(DATA_BYTES),
            lcfg.serialization_ns(ack))


def _hold() -> None:
    """A ghost: scheduled at the time batched background work would
    finish, it holds the clock open until then and does nothing else."""


def _draw(owner: Any, completions: List[float], raws: List[float]) -> None:
    """Replace a train's raw latencies by their jittered values, drawn
    from ``owner`` in (completion, line index) order.

    From :data:`VECTOR_DRAWS` draws up, a single vector draw replaces
    the scalar ones; it yields the same floats and leaves the generator
    where the scalar draws would."""
    order = sorted(range(len(raws)), key=completions.__getitem__)
    if (len(order) >= VECTOR_DRAWS and owner.rng is not None
            and owner.noise > 0):
        drawn = owner.rng.jitter_array([raws[k] for k in order],
                                       owner.noise).tolist()
        for k, value in zip(order, drawn):
            raws[k] = value
    else:
        for k in order:
            raws[k] = owner._jittered(raws[k])


def _train(live: _LiveTrain, owner: Any, fore_end: float,
           completions: List[float], raws: List[float],
           serial: bool) -> Generator[Any, Any, List[float]]:
    """The generator handed back to the per-line call site: it lands on
    the train's foreground end, then performs the deferred draws."""
    yield WakeAt(fore_end)
    live.drawn = True
    _draw(owner, completions, raws)
    return raws if serial else completions


def _launch(p: Any, kind: str, owner: Any, completions: List[float],
            raws: List[float], bg_end: float,
            serial: bool) -> Generator[Any, Any, List[float]]:
    """Publish a built train and return the generator the caller runs.

    A ghost holds the clock open past the foreground end until the
    background work the train posted would drain.  A pipelined train
    returns its completion times; a serial one returns its jittered
    latencies, as ``[run_process(op(a)) for a in addrs]`` would."""
    fore_end = max(completions)
    live = p._bulk_train = _LiveTrain(max(fore_end, bg_end))
    if bg_end > fore_end:
        p.sim.schedule_at(bg_end, _hold)
    BULK_STATS.batch(kind, len(completions))
    return _train(live, owner, fore_end, completions, raws, serial)


# ----------------------------------------------------------------------
# D2H trains (LSU -> DCOH -> CXL.cache -> home agent)
# ----------------------------------------------------------------------

def try_lsu_train(p: Any, lsu: Any, op: D2HOp, addrs: List[int],
                  serial: bool = False) -> Optional[Generator[Any, Any,
                                                              List[float]]]:
    """Attempt to batch ``lsu.d2h(op, addr) for addr in addrs`` into one
    train.  Returns a generator bit-exact to running the per-line
    processes pipelined from the current timestamp — with ``serial``, to
    ``[sim.run_process(lsu.d2h(op, a)) for a in addrs]`` — or ``None``
    when the stream is not provably homogeneous (caller falls back
    per-line)."""
    if op not in _D2H_OPS or len(addrs) < MIN_TRAIN_LINES:
        return None
    t2 = p.t2
    dcoh, home = t2.dcoh, p.home
    hmc, llc = dcoh.hmc, home.llc
    channels = home.mem.channels
    reason = _refusal(p, addrs, serial,
                      lambda: _lsu_resources(p, "d2h", channels))
    if reason is None and (lsu is not t2.lsu or lsu.dcoh is not dcoh):
        reason = "foreign-lsu"
    if reason is not None:
        _refuse(reason)
        return None
    K = len(addrs)

    # -- branch pre-scan: every line must take one uniform path ---------
    in_hmc, poisoned = hmc.residency(addrs)
    if poisoned:
        BULK_STATS.fallback("poison")
        return None
    # The LLC is peeked only where the branch depends on it.
    is_read = op in (D2HOp.NC_READ, D2HOp.CS_READ)
    if is_read:
        in_llc = llc.residency(addrs)[0] if in_hmc == 0 else -1
        if in_hmc == K:
            branch = "hmc"
        elif in_llc == K:
            branch = "llc"
        elif in_llc == 0:
            branch = "mem"
        else:
            BULK_STATS.fallback("mixed-branch")
            return None
        if op is D2HOp.CS_READ and branch != "hmc":
            # Fills can evict resident lines of their sets mid-train; a
            # dirty (or poisoned) victim would spawn a wire-using
            # writeback the replay does not model.
            if hmc.any_dirty_in_sets(addrs):
                BULK_STATS.fallback("dirty-hmc")
                return None
    elif op is D2HOp.NC_WRITE:
        in_llc = llc.residency(addrs)[0]
        if 0 < in_llc < K:
            BULK_STATS.fallback("mixed-branch")
            return None
        branch = "llc" if in_llc else "mem"
        # Keep every channel's queue below capacity so enqueue-complete
        # times stay monotone across channels (no cross-channel
        # reordering at the shared ack wire).
        if (not serial
                and K > channels[0].cfg.write_queue_entries):
            BULK_STATS.fallback("wq-depth")
            return None
    else:                                   # NC_P
        branch = "push"

    # -- eligibility proven: build the train ----------------------------
    nch = len(channels)
    lcfg = t2.port.link.cfg
    ser_req, ser_data_up, ser_data_down, ser_ack = _wire_ns(lcfg)
    prop = lcfg.propagation_ns
    issue_ns = lsu.cfg.lsu_issue_ns
    engine_ns = lsu.cfg.dcoh.engine_ns
    lookup_ns = lsu.cfg.dcoh.lookup_ns
    gap_ns = lsu.cfg.dcoh.write_issue_gap_ns
    agent_read_ns = dcoh.costs.read_ns
    agent_write_ns = dcoh.costs.write_ns
    miss_extra_ns = dcoh.costs.miss_extra_ns
    llc_ns = home.cfg.llc_ns
    bw_ns = CACHELINE / channels[0].cfg.bytes_per_ns
    read_ns = channels[0].cfg.read_ns
    cs_fill = op is D2HOp.CS_READ
    at_hmc, at_llc = branch == "hmc", branch == "llc"
    victims: List[int] = []
    hmc_lookup, llc_lookup, llc_insert = hmc.lookup, llc.lookup, llc.insert

    t0 = c = p.sim.now
    wq = _ledgers(p, t0)
    completions = [0.0] * K
    raws = [0.0] * K
    win_free, win_heap = lsu.cfg.lsu_outstanding, []
    issue_free = wp_free = up_free = down_free = 0.0
    rd_free = [0.0] * nch           # per channel index

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if wq.end <= c else wq.end
        elif win_free:              # window admission: a free slot now,
            win_free -= 1
            g = t0
        else:                       # else the FIFO release hand-off
            g = heappop(win_heap)[0]
        # lsu.issue (FIFO, one slot per fabric cycle) + DCOH front end
        t = (g if issue_free <= g else issue_free) + issue_ns
        issue_free = t
        t += engine_ns
        t += lookup_ns
        if is_read:
            if at_hmc:
                line = hmc_lookup(addr)
                t += lookup_ns                       # HMC data array
                c = t
                if cs_fill:                          # Table III: ends Shared
                    line.state = LineState.SHARED
            else:
                t = (t if up_free <= t else up_free) + ser_req
                up_free = t
                t += prop
                t += agent_read_ns
                t += llc_ns
                if at_llc:
                    line = llc_lookup(addr)
                    if cs_fill and line.state.needs_downgrade_for_share:
                        line.state = LineState.SHARED
                else:
                    t += miss_extra_ns
                    ci = (addr // CACHELINE) % nch
                    channels[ci].reads += 1
                    free = rd_free[ci]
                    t = (t if free <= t else free) + bw_ns
                    rd_free[ci] = t
                    t += read_ns
                t = (t if down_free <= t else down_free) + ser_data_down
                down_free = t
                t += prop
                c = t
        else:
            t = (t if wp_free <= t else wp_free) + gap_ns
            wp_free = t
            hmc.invalidate(addr)                     # Table III: -> Invalid
            t = (t if up_free <= t else up_free) + ser_data_up
            up_free = t
            t += prop
            t += agent_write_ns
            if op is D2HOp.NC_WRITE:
                if at_llc:
                    t += llc_ns
                    llc.set_state(addr, LineState.INVALID)
                t = wq.post(channels, addr, t)
            else:                                    # NC_P -> host LLC
                t += llc_ns
                del victims[:]
                llc_insert(addr, LineState.MODIFIED,
                           writeback=victims.append)
                for victim in victims:               # dirty victim -> DRAM
                    wq.post(channels, victim, t)
            t = (t if down_free <= t else down_free) + ser_ack
            down_free = t
            t += prop
            c = t
        completions[k] = c
        heappush(win_heap, (c, k))
        raws[k] = c - (g if serial else t0)

    # Lines fill the HMC in completion order, which is line order;
    # nothing reads it in between.
    if cs_fill and not at_hmc:
        hmc.fill(addrs, LineState.SHARED, _unexpected_writeback)
    # Caches the pre-scan proved every line misses are not looked up
    # per line: a miss has no LRU effect, only its count.
    if is_read and not at_hmc:
        hmc.misses += K
        if not at_llc:
            llc.misses += K
    dcoh.d2h_count += K
    link = t2.port.link
    if is_read:
        if not at_hmc:
            link.messages += 2 * K
            link.bytes_moved += (REQ_BYTES + DATA_BYTES) * K
    else:
        link.messages += 2 * K
        link.bytes_moved += (REQ_BYTES + DATA_BYTES + ACK_BYTES) * K
    kind = ("d2h-serial/" if serial else "d2h/") + op.value
    return _launch(p, kind, lsu, completions, raws, wq.end, serial)


# ----------------------------------------------------------------------
# D2D trains (LSU -> DCOH -> DMC / device memory, bias-mode aware)
# ----------------------------------------------------------------------

def try_lsu_d2d_train(p: Any, lsu: Any, op: D2HOp, addrs: List[int],
                      serial: bool = False,
                      writebacks: Sequence[int] = ()) -> Optional[
                          Generator[Any, Any, List[float]]]:
    """Attempt to batch ``lsu.d2d(op, addr) for addr in addrs``.

    D2D streams are homogeneous when every line resolves to one bias
    mode, one DMC branch (all-hit or all-miss), and — under host bias —
    a clean host LLC (a dirty host copy takes the data-pull branch).
    Dirty DMC victims evicted by fills are replayed into the device
    channels' write-queue ledgers, exactly like the per-line writeback
    processes they stand in for.  ``serial`` as for
    :func:`try_lsu_train`.

    ``writebacks`` are the dirty victims of a batched DMC prime
    (:meth:`~repro.devices.dcoh.DcohSlice.prime_dmc`), in victim order.
    Per-line, each is a ``dmc.writeback`` process spawned ahead of the
    lines, so its write reaches its device channel at the start, before
    any line's: the train posts them first.  A serial train's first line
    runs beside them; each later line starts at the previous line's
    drain end, which includes theirs."""
    if op not in _D2D_OPS or len(addrs) < MIN_TRAIN_LINES:
        return None
    t2 = p.t2
    dcoh = t2.dcoh
    dmc, llc = dcoh.dmc, p.home.llc
    channels = t2.dev_mem.channels
    reason = _refusal(p, addrs, serial,
                      lambda: _lsu_resources(p, "d2d", channels))
    if reason is None:
        if lsu is not t2.lsu or lsu.dcoh is not dcoh:
            reason = "foreign-lsu"
        elif t2.checks_in_flight:
            # A per-line H2D access will peek (and may change) a DMC
            # line later; the replay would apply its DMC work before that.
            reason = "h2d-check"
    if reason is not None:
        _refuse(reason)
        return None
    K = len(addrs)
    # One bias region spanning the whole train settles every line's
    # mode at once; otherwise ask line by line.
    bias = (t2.bias.mode_of_span(min(addrs), max(addrs))
            if dcoh._bias_of == t2.bias.mode_of_addr else None)
    if bias is None:
        try:
            biases = {dcoh._bias_of(a) for a in addrs}
        except DeviceError:
            BULK_STATS.fallback("bias-error")
            return None
        if len(biases) != 1:
            BULK_STATS.fallback("mixed-bias")
            return None
        bias = biases.pop()
    host_bias = bias is BiasMode.HOST

    # -- branch pre-scan: one uniform path for every line ---------------
    in_dmc, poisoned = dmc.residency(addrs)
    if poisoned:
        BULK_STATS.fallback("poison")
        return None
    # NC-wr invalidates the DMC line regardless of residency — the only
    # op whose path does not branch on hit/miss.
    if 0 < in_dmc < K and op is not D2HOp.NC_WRITE:
        BULK_STATS.fallback("mixed-branch")
        return None
    at_dmc = in_dmc == K

    is_read = op in _D2D_READS
    # Host-bias snoop runs for every write, and for reads only on a DMC
    # miss; a dirty host copy takes the data-pull branch per line.
    snoops = host_bias and (not is_read or not at_dmc)
    # A D2D train never fills the LLC: with none of its lines resident
    # up front, no snoop finds a host copy.
    llc_copies = snoops and llc.residency(addrs)[0] > 0
    if llc_copies and any(llc.state_of(a).is_dirty for a in addrs):
        BULK_STATS.fallback("llc-dirty")
        return None
    fills = not at_dmc and op in (D2HOp.CS_READ, D2HOp.CO_READ,
                                  D2HOp.CO_WRITE)
    if fills and dmc.poison_seen and any(line.poisoned
                                         for line in dmc.lines()):
        # A poisoned victim would defer device-memory poison through
        # ``_poisoned_writebacks`` — per-line machinery only.
        BULK_STATS.fallback("poison")
        return None

    # -- eligibility proven: build the train ----------------------------
    nch = len(channels)
    lcfg = t2.port.link.cfg
    ser_req, __, __, ser_ack = _wire_ns(lcfg)
    prop = lcfg.propagation_ns
    issue_ns = lsu.cfg.lsu_issue_ns
    engine_ns = lsu.cfg.dcoh.engine_ns
    lookup_ns = lsu.cfg.dcoh.lookup_ns
    gap_ns = lsu.cfg.dcoh.write_issue_gap_ns
    if host_bias:
        gap_ns = gap_ns + HOST_BIAS_WRITE_GAP_EXTRA_NS
    write_ns = dcoh.costs.write_ns
    bw_ns = CACHELINE / channels[0].cfg.bytes_per_ns
    read_ns = channels[0].cfg.read_ns
    fill_state = (LineState.SHARED if op is D2HOp.CS_READ
                  else LineState.EXCLUSIVE if op is D2HOp.CO_READ
                  else LineState.MODIFIED)
    read_fills = op is not D2HOp.NC_READ
    co_write = op is D2HOp.CO_WRITE
    victims: List[int] = []
    dmc_lookup, dmc_insert = dmc.lookup, dmc.insert

    t0 = c = p.sim.now
    wq = _ledgers(p, t0)
    for victim in writebacks:
        wq.post(channels, victim, t0)
    completions = [0.0] * K
    raws = [0.0] * K
    win_free, win_heap = lsu.cfg.lsu_outstanding, []
    issue_free = wp_free = up_free = down_free = 0.0
    rd_free = [0.0] * nch           # per channel index

    for k, addr in enumerate(addrs):
        if serial and k:            # the previous line's drain end
            g = c if wq.end <= c else wq.end
        elif win_free:              # window admission: a free slot now,
            win_free -= 1
            g = t0
        else:                       # else the FIFO release hand-off
            g = heappop(win_heap)[0]
        t = (g if issue_free <= g else issue_free) + issue_ns
        issue_free = t
        t += engine_ns
        t += lookup_ns
        if is_read:
            if at_dmc:
                dmc_lookup(addr)                 # hit + LRU effects
                t += lookup_ns                   # DMC data array
                c = t
            else:
                if host_bias:                    # snoop: clean, ack back
                    t = (t if up_free <= t else up_free) + ser_req
                    up_free = t
                    t += prop
                    t += write_ns
                    t = (t if down_free <= t else down_free) + ser_ack
                    down_free = t
                    t += prop
                ci = (addr // CACHELINE) % nch
                channels[ci].reads += 1
                free = rd_free[ci]
                t = (t if free <= t else free) + bw_ns
                rd_free[ci] = t
                t += read_ns
                c = t
                if read_fills:
                    del victims[:]
                    dmc_insert(addr, fill_state, writeback=victims.append)
                    for victim in victims:       # dirty victim -> dev DRAM
                        wq.post(channels, victim, c)
        else:
            t = (t if wp_free <= t else wp_free) + gap_ns
            wp_free = t
            if host_bias:                        # snoop: clean, invalidate
                t = (t if up_free <= t else up_free) + ser_req
                up_free = t
                t += prop
                t += write_ns
                if llc_copies and llc.state_of(addr).is_valid:
                    llc.set_state(addr, LineState.INVALID)
                t = (t if down_free <= t else down_free) + ser_ack
                down_free = t
                t += prop
            if co_write:
                if at_dmc:
                    line = dmc.peek(addr)
                    t += lookup_ns
                    line.state = LineState.MODIFIED
                    line.scrub_poison()
                else:
                    del victims[:]
                    dmc_insert(addr, LineState.MODIFIED,
                               writeback=victims.append)
                    for victim in victims:       # dirty victim -> dev DRAM
                        wq.post(channels, victim, t)
                    t += lookup_ns
                c = t
            else:                                # NC_WRITE: posted to DRAM
                dmc.invalidate(addr)
                c = wq.post(channels, addr, t)
        completions[k] = c
        heappush(win_heap, (c, k))
        raws[k] = c - (g if serial else t0)

    if is_read and not at_dmc:      # proven misses: counted, not looked up
        dmc.misses += K
    dcoh.d2d_count += K
    if snoops:                      # one request up, one ack down per line
        link = t2.port.link
        link.messages += 2 * K
        link.bytes_moved += (REQ_BYTES + ACK_BYTES) * K
    kind = ("d2d-serial/" if serial else "d2d/") + op.value
    return _launch(p, kind, lsu, completions, raws, wq.end, serial)


# ----------------------------------------------------------------------
# H2D trains (host core -> CXL.mem -> Type-2 or Type-3 device memory)
# ----------------------------------------------------------------------

# The steps of a host core line's program (see :func:`try_h2d_train`
# and :func:`try_remote_train`): ``_WAIT`` is one Timeout; ``_DOWN``,
# ``_READ`` and ``_UP`` hold the link's ``TO_DEVICE`` wire, the line's
# channel read slot and the ``TO_HOST`` wire (FIFO, one holder);
# ``_POST`` posts a write to the line's channel; ``_DONE`` is the line's
# completion.
_WAIT, _DOWN, _READ, _POST, _UP, _DONE = range(6)


def _stream(prog: List[Tuple[int, float]], chan: List[int],
            queues: List[_ChannelLedger], t0: float, end: float,
            width: int, serial: bool) -> Tuple[List[float], List[float],
                                               float]:
    """Replay an nt-st program whose posted write is its one channel
    stage, line by line: the down wire takes the lines in window order,
    so they complete, and post their writes, in line order.  Arguments
    and result as for :func:`_replay`."""
    codes = [code for code, __ in prog]
    args = [arg for __, arg in prog]
    down, done = codes.index(_DOWN), codes.index(_DONE)
    front, ser = args[:down], args[down]
    mid, back = args[down + 1:done], args[done + 1:-1]
    K = len(chan)
    completions = [0.0] * K
    raws = [0.0] * K
    window: List[float] = []
    down_free = 0.0
    c = t0
    for k in range(K):
        if serial and k:            # the previous line's drain end
            g = c if end <= c else end
        elif k < width:             # a free window slot at the start,
            g = t0
        else:                       # else the earliest release
            g = heappop(window)
        t = g
        for wait in front:
            t += wait
        t = (t if down_free <= t else down_free) + ser
        down_free = t
        for wait in mid:
            t += wait
        c = completions[k] = t      # retires at the controller
        raws[k] = c - (g if serial else t0)
        heappush(window, c)
        for wait in back:           # the posted device write
            t += wait
        __, drained = queues[chan[k]].write(t)
        if drained > end:
            end = drained
    return completions, raws, end


def _replay(prog: List[Tuple[int, float]], chan: List[int],
            queues: List[_ChannelLedger], t0: float, end: float,
            width: int, serial: bool) -> Optional[Tuple[List[float],
                                                        List[float],
                                                        float]]:
    """Replay line programs in the order the engine would run them.

    Line ``k`` reads from and posts to channel ``chan[k]``, whose ledger
    is ``queues[chan[k]]`` (scratch copies, so a refused replay leaves
    the platform's ledgers as they were); ``end`` is the latest drain
    end already posted to them.  Pipelined, the first ``width`` lines
    start at ``t0`` and each completion hands its window slot to the
    next line; serial, line 0 starts at ``t0`` and line *k* alone at
    line *k-1*'s drain end.

    A line overtaken at a channel reaches the shared up wire later, so
    stage arrivals are taken from a heap in the engine's order.  Each
    carries the key of the event that runs it, ``(time, key of the
    event that scheduled it)``: the engine runs equal times in
    scheduling order, and tuple comparison walks back through the
    schedulers to the first difference.  The keys follow every engine
    entry on the way: a free FIFO grants through two same-time entries
    (the deferred grant, then the resumption), a busy one from the
    holder's release; the spawns of the first lines are ordered by line
    index; an nt-st line's completion spawns its posted write, then
    hands off its window slot.

    Returns the completions, the raw latencies and the last drain end,
    or None where the keys do not settle the order: a write that would
    wait for (or meet) a drain ending, whose release the keys do not
    follow, or two completions at one time, whose deferred draws would
    be ordered by their keys rather than by line index."""
    K = len(chan)
    codes = [code for code, __ in prog]
    args = [arg for __, arg in prog]
    last = len(prog)
    completions = [0.0] * K
    raws = [0.0] * K
    origin = [t0] * K
    # Each FIFO's release time and the key of its releasing event: the
    # channels' read slots, then the down and the up wire.
    nch = len(queues)
    frees = [0.0] * (nch + 2)
    free_keys: List[tuple] = [()] * (nch + 2)
    done_at = -1.0
    heap: List[Tuple[tuple, int, int]] = []

    def start(k: int, t: float, key: tuple) -> None:
        # ``key`` resumes line k with its window slot.
        pc = 0
        while codes[pc] == _WAIT:
            t += args[pc]
            key = (t, key)
            pc += 1
        heappush(heap, (key, k, pc))

    for k in range(width):
        spawn = (t0, (), k)
        start(k, t0, (t0, (t0, spawn)))
    admitted = width
    key, k, pc = heappop(heap)
    while True:
        t = key[0]
        code = codes[pc]
        if code == _DONE:
            if t == done_at:
                return None
            done_at = completions[k] = t
            raws[k] = t - origin[k]
            if not serial and admitted < K:
                start(admitted, t, (t, key, 1))   # the window hand-off
                admitted += 1
            key = (t, key, 0)       # an nt-st line's posted write
        elif code == _POST:
            queue = queues[chan[k]]
            pending = queue.pending
            if len(pending) >= queue.cap and pending[-queue.cap] >= t:
                return None
            e, drained = queue.write(t)     # a free slot: granted now
            key = (e, (t, (t, key)))
            t = e
            if drained > end:
                end = drained
        else:
            slot = (chan[k] if code == _READ else nch if code == _DOWN
                    else nch + 1)
            free = frees[slot]
            if free < t or free == t and free_keys[slot] < key:
                grant = (t, (t, key))
            else:
                t = free
                grant = (t, free_keys[slot])
            t += args[pc]
            key = (t, grant)
            frees[slot], free_keys[slot] = t, key
        pc += 1
        if pc < last:
            while codes[pc] == _WAIT:
                t += args[pc]
                key = (t, key)
                pc += 1
            # The earliest arrival next, which is often this line's.
            key, k, pc = heappushpop(heap, (key, k, pc))
            continue
        if serial and admitted < K:
            # The next line starts alone at this one's drain end.
            t = completions[k] if end <= completions[k] else end
            origin[admitted] = t
            spawn = (t, (), admitted)
            start(admitted, t, (t, (t, spawn)))
            admitted += 1
        if not heap:
            break
        key, k, pc = heappop(heap)
    return completions, raws, end


def try_h2d_train(p: Any, core: Any, op: HostOp, device: Any,
                  addrs: List[int], serial: bool = False,
                  writebacks: Sequence[int] = ()) -> Optional[
                      Generator[Any, Any, List[float]]]:
    """Attempt to batch ``core.cxl_op(op, addr, device) for addr in
    addrs``: host ld, nt-ld, st or nt-st lines into the memory of the
    Type-2 device or of the Type-3 device without an inline AFU.

    A Type-2 line's DMC check takes one uniform branch for the whole
    train: every line absent, or every line resident in one state
    (SHARED, OWNED/EXCLUSIVE, or MODIFIED with its foreground writeback);
    mixed states are refused (``dmc-state``).  Each line's path is a
    program of Timeouts and stages (:func:`_replay`); an nt-st line
    retires at the controller and its posted device write runs on as
    background work.  Writes go to the device channels' write-queue
    ledgers.  ``serial`` as for :func:`try_lsu_train`; ``writebacks``,
    the Type-2 DMC's, as for :func:`try_lsu_d2d_train`."""
    if len(addrs) < MIN_TRAIN_LINES:
        return None
    t2 = p.t2
    to_t2 = device is t2
    link = device.port.link
    channels = device.dev_mem.channels
    window = core._win[("cxl", op)]
    reason = _refusal(p, addrs, serial,
                      lambda: _core_resources(window, link, channels))
    if reason is None:
        if to_t2:
            if t2.checks_in_flight:     # a per-line DMC check still to come
                reason = "h2d-check"
        elif device is not p.t3 or device.inline_afu is not None:
            reason = "h2d-target"
        elif link.dead or link.faults is not NO_FAULTS or link._retrain_until:
            reason = "link-ras"
        elif device.dev_mem.faults is not NO_FAULTS or device.dev_mem.poisoned:
            reason = "faults"
    if reason is not None:
        _refuse(reason)
        return None
    K = len(addrs)
    state = None
    if to_t2:
        dmc = t2.dcoh.dmc
        resident, poisoned = dmc.residency(addrs)
        if poisoned:
            BULK_STATS.fallback("poison")
            return None
        if resident:
            states = ({dmc.peek(a).state for a in addrs} if resident == K
                      else ())
            if len(states) != 1:
                BULK_STATS.fallback("dmc-state")
                return None
            state = states.pop()

    # -- the line program: Core.cxl_op and the target's serve path -----
    read = op.is_read
    hcfg, lcfg, dcfg = core.cfg, link.cfg, channels[0].cfg
    ser_req, ser_req_data, ser_data, ser_ack = _wire_ns(lcfg)
    prop = lcfg.propagation_ns
    prog = [(_WAIT, hcfg.issue_ns)]
    if op is HostOp.NT_LOAD:
        prog.append((_WAIT, hcfg.nt_load_extra_ns))
    elif op is HostOp.NT_STORE:
        prog.append((_WAIT, hcfg.nt_store_post_ns))
    prog += [(_DOWN, ser_req if read else ser_req_data), (_WAIT, prop)]
    if op is HostOp.NT_STORE:
        prog.append((_DONE, 0.0))       # retires at the controller
    prog.append((_WAIT, device.cfg.h2d_fabric_ns))
    # Dcoh.h2d_check: SHARED + read needs nothing beyond the check.
    change = state is not None and (state is not LineState.SHARED
                                    or not read)
    if to_t2:
        tcfg = t2.cfg
        prog.append((_WAIT, tcfg.h2d_dmc_check_ns))
        if state is LineState.MODIFIED:
            prog += [(_WAIT, tcfg.h2d_modified_writeback_ns), (_POST, 0.0)]
        elif change:
            prog.append((_WAIT, tcfg.h2d_state_change_ns))
    if read:
        prog += [(_READ, CACHELINE / dcfg.bytes_per_ns),
                 (_WAIT, dcfg.read_ns), (_UP, ser_data), (_WAIT, prop),
                 (_DONE, 0.0)]
    else:
        prog.append((_POST, 0.0))
        if op is HostOp.STORE:
            prog += [(_UP, ser_ack), (_WAIT, prop), (_DONE, 0.0)]

    t0 = p.sim.now
    wq = _ledgers(p, t0)
    nch = len(channels)
    chan = [(a // CACHELINE) % nch for a in addrs]
    queues = [wq[ch].copy() for ch in channels]
    end = t0
    for victim in writebacks:       # the prime's, ahead of the lines
        __, drained = queues[(victim // CACHELINE) % nch].write(t0)
        end = drained if drained > end else end
    width = 1 if serial else min(window.capacity, K)
    if op is HostOp.NT_STORE and state is not LineState.MODIFIED:
        replayed = _stream(prog, chan, queues, t0, end, width, serial)
    else:
        replayed = _replay(prog, chan, queues, t0, end, width, serial)
    if replayed is None:
        BULK_STATS.fallback("h2d-order")
        return None
    completions, raws, end = replayed

    # -- eligibility proven: commit the side effects --------------------
    posts = prog.count((_POST, 0.0))
    for ch, queue in zip(channels, queues):
        wq[ch] = queue
    wq.end = end
    for victim in writebacks:
        channels[(victim // CACHELINE) % nch].writes += 1
    for ci in chan:
        channel = channels[ci]
        channel.writes += posts
        if read:
            channel.reads += 1
    if read:
        device.h2d_reads += K
    else:
        device.h2d_writes += K
    # A request and a line each way, and an ordered store's ack.
    link.messages += (1 if op is HostOp.NT_STORE else 2) * K
    link.bytes_moved += (REQ_BYTES + DATA_BYTES + (
        ACK_BYTES if op is HostOp.STORE else 0)) * K
    if to_t2:
        h2d_touch = t2.bias.h2d_touch
        if t2.bias.mode_of_span(min(addrs), max(addrs)) is None:
            for addr in addrs:
                h2d_touch(addr)
        else:                       # one region: later touches are no-ops
            h2d_touch(addrs[0])
        if change:
            after = LineState.SHARED if read else LineState.INVALID
            for addr in addrs:
                dmc.set_state(addr, after)
    kind = ("h2d-serial/" if serial else "h2d/") + op.value
    return _launch(p, kind, core, completions, raws, end, serial)


def try_remote_train(p: Any, core: Any, op: HostOp, addrs: List[int],
                     serial: bool = False) -> Optional[
                         Generator[Any, Any, List[float]]]:
    """Attempt to batch ``core.remote_op(op, addr, p.home, p.upi) for
    addr in addrs``: Fig 3's emulated D2H, a remote-socket core's ld,
    nt-ld, st or nt-st lines to home memory over UPI.

    Every line must hit the LLC, or every line miss it.  A line's
    program (:func:`_replay`) is the remote window, the issue (and nt)
    Timeouts, the request up the UPI wire, the home agent's Timeouts,
    a host channel's read slot (a miss; a store's directory fetch) or
    posted write (nt-st), and the data or ack back down.  Lines reach
    the up wire in line order, so the home agent's LLC lookups,
    downgrades and invalidations are applied in line order; none of
    them changes a line's timing.  ``serial`` as for
    :func:`try_lsu_train`."""
    if len(addrs) < MIN_TRAIN_LINES:
        return None
    home, link = p.home, p.upi.link
    channels = home.mem.channels
    window = core._win[("remote", op)]
    reason = _refusal(p, addrs, serial,
                      lambda: _core_resources(window, link, channels))
    if reason is None and (link.dead or link.faults is not NO_FAULTS
                           or link._retrain_until):
        reason = "link-ras"
    if reason is not None:
        _refuse(reason)
        return None
    K = len(addrs)
    llc = home.llc
    resident = llc.residency(addrs)[0]
    if 0 < resident < K:
        BULK_STATS.fallback("mixed-branch")
        return None
    hit = resident == K

    # -- the line program: Core.remote_op and the home agent's path ----
    read = op.is_read
    hcfg, lcfg, dcfg = home.cfg, link.cfg, channels[0].cfg
    costs = upi_costs(core.cfg)
    ser_req, ser_req_data, ser_data, ser_ack = _wire_ns(
        lcfg, upi.REQ_BYTES, upi.ACK_BYTES)
    prop = lcfg.propagation_ns
    prog = [(_WAIT, core.cfg.issue_ns)]
    if op is HostOp.NT_LOAD:
        prog.append((_WAIT, core.cfg.nt_load_extra_ns))
    if op is HostOp.NT_STORE:       # HomeAgent.write_invalidate, posted
        prog += [(_WAIT, core.cfg.nt_store_post_ns), (_UP, ser_req_data),
                 (_WAIT, prop), (_WAIT, costs.write_ns)]
        if hit:
            prog.append((_WAIT, hcfg.llc_ns))
        prog += [(_POST, 0.0), (_DONE, 0.0)]
    else:                           # read_shared, or grant_ownership
        prog += [(_UP, ser_req), (_WAIT, prop),
                 (_WAIT, costs.read_ns if read else costs.write_ns),
                 (_WAIT, hcfg.llc_ns)]
        if not hit:
            if read:
                prog.append((_WAIT, costs.miss_extra_ns))
            prog += [(_READ, CACHELINE / dcfg.bytes_per_ns),
                     (_WAIT, dcfg.read_ns)]
        prog += [(_DOWN, ser_data if read else ser_ack), (_WAIT, prop),
                 (_DONE, 0.0)]

    t0 = p.sim.now
    wq = _ledgers(p, t0)
    nch = len(channels)
    chan = [(a // CACHELINE) % nch for a in addrs]
    queues = [wq[ch].copy() for ch in channels]
    width = 1 if serial else min(window.capacity, K)
    replayed = _replay(prog, chan, queues, t0, t0, width, serial)
    if replayed is None:
        BULK_STATS.fallback("remote-order")
        return None
    completions, raws, end = replayed

    # -- eligibility proven: commit the side effects --------------------
    if op is HostOp.NT_STORE:
        for ch, queue in zip(channels, queues):
            wq[ch] = queue
        wq.end = end
        for ci in chan:
            channels[ci].writes += 1
        link.messages += K
        link.bytes_moved += (upi.REQ_BYTES + DATA_BYTES) * K
        if hit:
            for addr in addrs:
                llc.set_state(addr, LineState.INVALID)
    else:
        link.messages += 2 * K
        link.bytes_moved += (upi.REQ_BYTES + (
            DATA_BYTES if read else upi.ACK_BYTES)) * K
        if not hit:
            llc.misses += K
            for ci in chan:
                channels[ci].reads += 1
        elif read:
            for addr in addrs:
                line = llc.lookup(addr)
                if line.state.needs_downgrade_for_share:
                    line.state = LineState.SHARED
        else:
            for addr in addrs:
                llc.lookup(addr)
                llc.set_state(addr, LineState.INVALID)
    kind = ("remote-serial/" if serial else "remote/") + op.value
    return _launch(p, kind, core, completions, raws, end, serial)


# ----------------------------------------------------------------------
# Command trains (the Fig-7 doorbell handshake of one offload command)
# ----------------------------------------------------------------------

def _ghosts_only(sim: Any) -> bool:
    """Whether every live entry the simulator holds is a ghost: nothing
    pending can touch a model, and no resource is held, since a holder
    is always a pending process.  A long queue is not scanned."""
    if sim._delta or sim._count > 8:
        return False
    dead = sim._dead
    for bucket in sim._due.values():
        for seq, fn, __ in bucket:
            if fn is not _hold and seq not in dead:
                return False
    return True


def try_command_head(p: Any, db: Any) -> Optional[Tuple[float, float]]:
    """Replay steps 1-2 of one offload command on doorbell ``db``: the
    host's two chained nt-st command lines with their posted device
    writes, and the device's two chained CS-rd poll lines.

    Performs every side effect and returns ``(submitted, polled)``, the
    times the submit and the poll would have returned per-line, or
    ``None`` when the command must run per-line (the refusal counted).
    The caller owns the doorbell bookkeeping and lands on ``polled``.

    Eligibility: the static checks, a quiescent simulator with no live
    train (so no resource is held), an empty doorbell queue, and no
    dirty copy of a command line (the snoop's data-pull branch, or the
    posted write's DMC writeback).  Each posted write invalidates a
    command line its DMC check finds, so consecutive commands alternate
    between a polling miss (snoop, device read, fill) and a hit.  Per
    line, the poll's lookup and fill and the posted write's check and
    invalidation are ordered by time; an exact tie is refused
    (``cmd-race``).  An invalidation may land after the poll returns.
    Applying it now is exact while nothing fills that DMC set first;
    the offload handlers' first DMC fill after the poll is a d2d
    read's, so one due at or past the earliest such fill is refused."""
    reason = _static_block_reason(p)
    sim = p.sim
    if reason is None:
        if not sim.quiescent or _live_train(p) is not None:
            reason = "cmd-pending"
        elif len(db._commands) or db._commands._getters:
            reason = "cmd-queue"
        elif p.t2.dcoh.dmc.poison_seen:
            reason = "poison"
    if reason is not None:
        _refuse(reason)
        return None
    core, t2 = p.core, p.t2
    dcoh = t2.dcoh
    dmc = dcoh.dmc
    lines = db._cmd_lines
    llc_state = p.home.llc.state_of
    resident = []
    for addr in lines:
        line = dmc.peek(addr)
        if ((line is not None and line.state is LineState.MODIFIED)
                or llc_state(addr) is LineState.MODIFIED):
            BULK_STATS.fallback("cmd-dirty")
            return None
        resident.append(line)

    t0 = sim.now
    lcfg = t2.port.link.cfg
    ser_req, ser_data_up, __, ser_ack = _wire_ns(lcfg)
    prop = lcfg.propagation_ns
    tcfg, hcfg = t2.cfg, core.cfg
    lsu_issue_ns = t2.lsu.cfg.lsu_issue_ns
    engine_ns, lookup_ns = tcfg.dcoh.engine_ns, tcfg.dcoh.lookup_ns
    change_ns = tcfg.h2d_state_change_ns
    write_ns = dcoh.costs.write_ns
    channels = t2.dev_mem.channels
    nch = len(channels)
    bw_ns = CACHELINE / channels[0].cfg.bytes_per_ns
    read_ns = channels[0].cfg.read_ns

    # Step 1: chained nt-st lines.  Each retires at the controller
    # and spawns its posted device write, whose DMC check lands at
    # ``retired + fabric + check``.
    retired = []
    checks = []
    c = t0
    for __ in lines:
        t = c + hcfg.issue_ns
        t += hcfg.nt_store_post_ns
        t += ser_data_up
        c = t + prop
        retired.append(c)
        t = c + tcfg.h2d_fabric_ns
        checks.append(t + tcfg.h2d_dmc_check_ns)

    # The poll: chained CS-rd lines.  ``inval`` is the posted
    # write's invalidation, None when its check finds the line absent.
    plan = []
    q = c
    for line, check in zip(resident, checks):
        present = line is not None
        look = q + lsu_issue_ns
        look += engine_ns
        look += lookup_ns
        inval = None
        if check <= look:           # the check sees the pre-state
            if present:
                inval = check + change_ns
                if inval == look:
                    BULK_STATS.fallback("cmd-race")
                    return None
            hit = present and inval > look
        else:
            hit = present
        if hit:
            end = look + lookup_ns
            if check > look:
                inval = check + change_ns
        else:                       # host-bias snoop, device read, fill
            t = look + ser_req
            t += prop
            t += write_ns
            t += ser_ack
            t += prop
            t += bw_ns
            end = t + read_ns
            if check > look:        # the check sees the fill if it landed
                if end == check:
                    BULK_STATS.fallback("cmd-race")
                    return None
                if end < check:
                    inval = check + change_ns
        plan.append((q, look, hit, inval, end, check))
        q = end
    polled = q
    # The earliest a d2d read issued when the poll returns can fill the
    # DMC: a device-bias miss, straight to a device read.
    earliest_fill = (polled + lsu_issue_ns + engine_ns + lookup_ns
                     + bw_ns + read_ns)
    for __, __, __, inval, __, __ in plan:
        if inval is not None and inval >= earliest_fill:
            BULK_STATS.fallback("cmd-race")
            return None

    # -- eligibility proven: apply the side effects in per-line order --
    n = len(lines)
    t2.bias.h2d_touch(lines[0])     # one region: later touches are no-ops
    t2.h2d_writes += n
    link = t2.port.link
    link.messages += n
    link.bytes_moved += n * (REQ_BYTES + DATA_BYTES)
    start = t0
    for c in retired:
        core._jittered(c - start)
        start = c
    dcoh.d2d_count += n
    jittered = t2.lsu._jittered
    writes = []                     # (arrival, line) of device writes
    victims: List[int] = []
    for addr, (q, look, hit, inval, end, check) in zip(lines, plan):
        if inval is not None and inval < look:
            dmc.set_state(addr, LineState.INVALID)
        dmc.lookup(addr)
        if not hit:
            link.messages += 2
            link.bytes_moved += REQ_BYTES + ACK_BYTES
            channels[(addr // CACHELINE) % nch].reads += 1
            del victims[:]
            dmc.insert(addr, LineState.SHARED, writeback=victims.append)
            writes += [(end, victim) for victim in victims]
        if inval is not None and inval > look:
            dmc.set_state(addr, LineState.INVALID)
        jittered(end - q)
        writes.append((check if inval is None else inval, addr))
    # The device writes (posted writes, dirty fill victims) by arrival.
    writes.sort()
    wq = _ledgers(p, t0)
    for arrival, addr in writes:
        wq.post(channels, addr, arrival)
    if wq.end > polled:
        sim.schedule_at(wq.end, _hold)
    BULK_STATS.batch("cmd/submit-poll", 2 * n)
    return retired[-1], polled


def try_command_tail(p: Any, db: Any, tag: int,
                     push_to_llc: bool) -> Optional[Tuple[float, float]]:
    """Replay step 5 and the host's wake-up read of command ``tag`` on
    doorbell ``db``, whose head trained: the device's result line (D2D
    NC-wr into device memory, or D2H NC-P into the host LLC) and the
    host's completion load (an H2D ld, or a local LLC load).

    Performs every side effect and returns ``(completed, read)``, the
    times :meth:`~repro.core.doorbell.Doorbell.device_complete` and the
    completion read would have returned per-line, or ``None`` (the
    refusal counted).  The head's static checks still hold, since only
    a pending process could change them and the head found none.
    Eligibility: nothing pending but ghosts, any live train drawn, no
    poison seen in the DMC, and nobody waiting on the doorbell."""
    sim = p.sim
    live = _live_train(p)
    if not _ghosts_only(sim) or (live is not None and not live.drawn):
        reason = "cmd-pending"
    elif p.t2.dcoh.dmc.poison_seen:
        reason = "poison"
    elif (tag in db._orphans or db._completions._getters
          or getattr(db._cpl_events.get(tag), "_callbacks", None)
          is not None):
        reason = "cmd-queue"
    else:
        reason = None
    if reason is not None:
        _refuse(reason)
        return None

    core, t2, home = p.core, p.t2, p.home
    dcoh, llc = t2.dcoh, home.llc
    r = db._result_line
    t1 = sim.now
    lcfg = t2.port.link.cfg
    ser_req, ser_data_up, ser_data, ser_ack = _wire_ns(lcfg)
    prop = lcfg.propagation_ns
    tcfg, hcfg = t2.cfg, core.cfg
    link = t2.port.link
    wq = _ledgers(p, t1)
    t = t1 + t2.lsu.cfg.lsu_issue_ns
    t += tcfg.dcoh.engine_ns
    t += tcfg.dcoh.lookup_ns
    if push_to_llc:
        # D2H NC-P: write pipe, data up, home agent, LLC fill, ack down.
        t += tcfg.dcoh.write_issue_gap_ns
        t += ser_data_up
        t += prop
        t += dcoh.costs.write_ns
        t += home.cfg.llc_ns
        filled = t
        t += ser_ack
        completed = t + prop
        # A local LLC load of the line the push just installed.
        t = completed + hcfg.issue_ns
        t += hcfg.home_agent_ns
        t += hcfg.llc_bw_ns_per_line
        read = t + max(0.0, hcfg.llc_ns - hcfg.llc_bw_ns_per_line)

        dcoh.d2h_count += 1
        dcoh.hmc.invalidate(r)
        link.messages += 2
        link.bytes_moved += REQ_BYTES + DATA_BYTES + ACK_BYTES
        victims: List[int] = []
        llc.insert(r, LineState.MODIFIED, writeback=victims.append)
        for victim in victims:                 # dirty victim -> DRAM
            wq.post(home.mem.channels, victim, filled)
        llc.lookup(r)
        kind = "cmd/complete-nc-p"
    else:
        # D2D NC-wr: write pipe, host-bias snoop, posted device write.
        # The snoop pulls a dirty host copy (the result line an earlier
        # command NC-P'd) down into the DMC, where the NC-wr drops it.
        host_bias = dcoh._bias_of(r) is BiasMode.HOST
        gap = tcfg.dcoh.write_issue_gap_ns
        if host_bias:
            gap += HOST_BIAS_WRITE_GAP_EXTRA_NS
        t += gap
        channels = t2.dev_mem.channels
        if host_bias:
            state = llc.state_of(r)
            t += ser_req
            t += prop
            t += dcoh.costs.write_ns
            t += ser_data if state.is_dirty else ser_ack
            t += prop
            link.messages += 2
            link.bytes_moved += REQ_BYTES + (DATA_BYTES if state.is_dirty
                                             else ACK_BYTES)
            if state.is_valid:
                llc.set_state(r, LineState.INVALID)
            if state.is_dirty:
                victims = []
                dcoh.dmc.insert(r, LineState.MODIFIED,
                                writeback=victims.append)
                for victim in victims:         # dirty victim -> dev DRAM
                    wq.post(channels, victim, t)
        completed = wq.post(channels, r, t)
        ch = channels[(r // CACHELINE) % len(channels)]
        # An H2D ld: request down, fabric, DMC check (the NC-wr left the
        # line absent), device read, data up.
        t = completed + hcfg.issue_ns
        t += ser_req
        t += prop
        t += tcfg.h2d_fabric_ns
        t += tcfg.h2d_dmc_check_ns
        t += CACHELINE / ch.cfg.bytes_per_ns
        t += ch.cfg.read_ns
        t += ser_data
        read = t + prop

        dcoh.d2d_count += 1
        dcoh.dmc.invalidate(r)
        t2.h2d_reads += 1
        t2.bias.h2d_touch(r)
        ch.reads += 1
        link.messages += 2
        link.bytes_moved += REQ_BYTES + DATA_BYTES
        kind = "cmd/complete-nc-wr"
    t2.lsu._jittered(completed - t1)
    core._jittered(read - completed)
    if wq.end > read:
        sim.schedule_at(wq.end, _hold)
    BULK_STATS.batch(kind, 2)
    return completed, read
