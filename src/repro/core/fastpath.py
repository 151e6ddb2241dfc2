"""Exact-replay bulk fast-forward for homogeneous line streams.

The streaming paths of Fig 3/5/6 — an LSU pulling K host lines, a host
core nt-storing K device lines — walk ~20 engine events *per 64 B line*.
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
  poison in flight, all shared resources idle (or already owned by a
  same-timestamp train group), distinct addresses, and one uniform
  branch through the coherence machinery for every line.  Anything else
  falls back to the per-line path and is counted in
  :data:`~repro.sim.bulk.BULK_STATS`;
* **deferred noise draws** — per-line latency jitter is drawn at each
  line's completion.  Trains sharing a start timestamp (the pipelined
  ``depth`` transfers of Fig 6) register draws into a shared group; the
  first train to resume performs them all in global completion order,
  preserving the RNG stream exactly.  From :data:`VECTOR_DRAWS` draws
  up, they are one vector draw, which equals the successive scalar
  draws element for element and leaves the same generator state.

Background work (posted-write drains, dirty-victim writebacks) is
charged into per-channel write-queue ledgers and covered by ghosts
(:func:`_hold` entries) so the simulation clock ends on the same final
timestamp as the per-line run.

Every builder also has a **serial mode** for dependent accesses — the
microbenchmark's latency phase, where each access runs alone to
completion via ``sim.run_process`` and the simulator drains between
accesses.  The same per-line loop replays it with three changes: line
*i* is granted at line *i-1*'s drain end ``max(c, bg_end)`` instead of
a window slot (every stage-free float and write-queue entry is then at
or below the grant, so the existing ``max`` picks reproduce an idle
pipeline); its raw latency is measured from that grant; and the clock
lands on the last line's drain end.  A serial train needs a quiescent
simulator and no live group.

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
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro import flags
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.devices.dcoh import HOST_BIAS_WRITE_GAP_EXTRA_NS
from repro.errors import DeviceError, SimulationError
from repro.faults import NO_FAULTS
from repro.interconnect.cxl import ACK_BYTES, DATA_BYTES, REQ_BYTES
from repro.interconnect.link import Direction
from repro.mem.coherence import LineState
from repro.sim.bulk import BULK_STATS
from repro.sim.engine import WakeAt
from repro.units import CACHELINE

# Below this, per-line cost is negligible and a train buys nothing.
MIN_TRAIN_LINES = 2

# Deferred draws from which a group draws its jitter as one vector.
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
    queue, so a ledger outlives the trains that charged it."""

    def __missing__(self, channel: Any) -> _ChannelLedger:
        ledger = self[channel] = _ChannelLedger(channel)
        return ledger


def _ledgers(p: Any) -> _Ledgers:
    ledgers = getattr(p, "_bulk_ledgers", None)
    if ledgers is None:
        ledgers = p._bulk_ledgers = _Ledgers()
    return ledgers


class _TrainGroup:
    """Ledger shared by all trains departing at one timestamp.

    Fig 6's bandwidth phase spawns ``depth`` whole-transfer processes at
    a single timestamp; per-line, their children interleave only through
    FIFO resources, so later trains simply *extend* the first train's
    pipeline state.  The group carries that state — window release
    stream and per-stage free floats — and the deferred jitter draws of
    every member train.  A builder reads the floats into locals and
    writes them back once.
    """

    __slots__ = ("key", "t0", "horizon", "count", "drawn", "pending",
                 "owners", "claimed", "win_free", "win_heap", "issue_free",
                 "wp_free", "up_free", "down_free", "rd_free")

    def __init__(self, key: tuple, t0: float, window: int, channels: int):
        self.key = key
        self.t0 = t0
        self.horizon = t0
        self.count = 0                # global child index across trains
        self.drawn = False
        # (completion, child index, jitter owner, raw latency, out, slot)
        self.pending: List[tuple] = []
        self.owners: set = set()      # the member trains' jitter owners
        self.claimed: set = set()
        self.win_free = window
        self.win_heap: List[Tuple[float, int]] = []
        self.issue_free = 0.0
        self.wp_free = 0.0
        self.up_free = 0.0
        self.down_free = 0.0
        self.rd_free = [0.0] * channels    # per channel index


def _live_group(platform: Any) -> Optional[_TrainGroup]:
    group = getattr(platform, "_bulk_group", None)
    if group is not None and platform.sim.now >= group.horizon:
        platform._bulk_group = None
        group = None
    return group


def _static_block_reason(p: Any) -> Optional[str]:
    """Platform-wide conditions under which no train may ever run."""
    if not flags.get("bulk"):
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
    if flags.get("bulk"):
        BULK_STATS.fallback("pending")
    return False


def _refusal(p: Any, key: tuple, addrs: List[int], serial: bool,
             resources: Callable[[], List[Any]]) -> Optional[str]:
    """Why a train keyed ``key`` may not start now, or None.

    A pipelined train extends the live group of its timestamp and key,
    or opens a fresh group over idle ``resources``.  A serial train
    always opens a fresh group and needs a quiescent simulator too."""
    group = _live_group(p)
    if group is not None:
        if serial or group.t0 != p.sim.now or group.key != key:
            return "group-overlap"
        if any(a in group.claimed for a in addrs):
            return "addr-overlap"
        return None
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


def _unexpected_writeback(addr: int) -> None:
    raise SimulationError(
        f"bulk train evicted a dirty line ({hex(addr)}) the eligibility "
        "pre-scan promised could not exist")


@lru_cache(maxsize=None)
def _wire_ns(lcfg: Any) -> Tuple[float, float, float, float]:
    """Serialization time of a request, a request with data, a data
    message and an ack on a link with config ``lcfg``."""
    return (lcfg.serialization_ns(REQ_BYTES),
            lcfg.serialization_ns(REQ_BYTES + DATA_BYTES),
            lcfg.serialization_ns(DATA_BYTES),
            lcfg.serialization_ns(ACK_BYTES))


def _hold() -> None:
    """A ghost: scheduled at the time batched background work would
    finish, it holds the clock open until then and does nothing else."""


def _draw(group: _TrainGroup) -> None:
    """Perform a group's deferred jitter draws in completion order.

    From :data:`VECTOR_DRAWS` draws of one owner up, a single vector
    draw replaces the scalar ones; it yields the same floats and leaves
    the generator where the scalar draws would."""
    pending = group.pending
    pending.sort()              # (completion, child index) is unique
    owner = pending[0][2]
    if (len(pending) >= VECTOR_DRAWS and len(group.owners) == 1
            and owner.rng is not None and owner.noise > 0):
        drawn = owner.rng.jitter_array([entry[3] for entry in pending],
                                       owner.noise).tolist()
        for (__, __, __, __, out, i), value in zip(pending, drawn):
            out[i] = value
    else:
        for __, __, who, raw, out, i in pending:
            out[i] = who._jittered(raw)


def _train(group: _TrainGroup, fore_end: float,
           out: List[float]) -> Generator[Any, Any, List[float]]:
    """The generator handed back to the per-line call site.

    Lands on the train's foreground end; the first member of the group
    to resume performs every deferred jitter draw in global completion
    order (nothing else consumes those RNG streams inside the group's
    window, so the stream order matches the per-line run exactly).
    """
    yield WakeAt(fore_end)
    if not group.drawn:
        group.drawn = True
        _draw(group)
    return out


def _launch(p: Any, group: _TrainGroup, kind: str, addrs: List[int],
            completions: List[float], results: List[float], bg_end: float,
            serial: bool, owner: Any) -> Generator[Any, Any, List[float]]:
    """Publish a built train and return the generator the caller runs.

    A ghost holds the clock open past the foreground end until the
    background work the train charged would drain.  A pipelined train
    returns its completion times; a serial one returns its jittered
    latencies, as ``[run_process(op(a)) for a in addrs]`` would."""
    group.claimed.update(addrs)
    group.owners.add(owner)
    fore_end = max(completions)
    if bg_end > group.horizon or fore_end > group.horizon:
        group.horizon = max(group.horizon, fore_end, bg_end)
    p._bulk_group = group
    if bg_end > fore_end:
        p.sim.schedule_at(bg_end, _hold)
    BULK_STATS.batch(kind, len(addrs))
    return _train(group, fore_end, results if serial else completions)


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
    reason = _static_block_reason(p)
    if reason is not None:
        _refuse(reason)
        return None
    t2 = p.t2
    if lsu is not t2.lsu or lsu.dcoh is not t2.dcoh:
        BULK_STATS.fallback("foreign-lsu")
        return None
    K = len(addrs)
    if len(set(addrs)) != K:
        BULK_STATS.fallback("dup-addrs")
        return None

    sim = p.sim
    t0 = sim.now
    dcoh, home = t2.dcoh, p.home
    hmc, llc, mem = dcoh.hmc, home.llc, home.mem
    key = ("d2h", op)

    reason = _refusal(p, key, addrs, serial,
                      lambda: _lsu_resources(p, "d2h", mem.channels))
    if reason is not None:
        BULK_STATS.fallback(reason)
        return None

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
            # Fills can evict resident lines mid-train; a dirty (or
            # poisoned) victim would spawn a wire-using writeback the
            # replay does not model.
            if any(line.state.is_dirty or line.poisoned
                   for line in hmc.lines()):
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
                and K > mem.channels[0].cfg.write_queue_entries):
            BULK_STATS.fallback("wq-depth")
            return None
    else:                                   # NC_P
        branch = "push"

    # -- eligibility proven: build the train ----------------------------
    channels = mem.channels
    nch = len(channels)
    group = _live_group(p) or _TrainGroup(key, t0, lsu.cfg.lsu_outstanding,
                                          nch)

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
    wq = _ledgers(p)

    completions = [0.0] * K
    results = [0.0] * K
    bg_end = 0.0
    c = t0
    win_free, win_heap = group.win_free, group.win_heap
    issue_free, wp_free = group.issue_free, group.wp_free
    up_free, down_free = group.up_free, group.down_free
    rd_free, pending = group.rd_free, group.pending
    gi = group.count

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if bg_end <= c else bg_end
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
                if cs_fill:
                    hmc.insert(addr, LineState.SHARED,
                               writeback=_unexpected_writeback)
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
                ch = channels[(addr // CACHELINE) % nch]
                ch.writes += 1
                t, d_end = wq[ch].write(t)
                if d_end > bg_end:
                    bg_end = d_end
            else:                                    # NC_P -> host LLC
                t += llc_ns
                del victims[:]
                llc_insert(addr, LineState.MODIFIED,
                           writeback=victims.append)
                for victim in victims:               # dirty victim -> DRAM
                    vch = channels[(victim // CACHELINE) % nch]
                    vch.writes += 1
                    __, d_end = wq[vch].write(t)
                    if d_end > bg_end:
                        bg_end = d_end
            t = (t if down_free <= t else down_free) + ser_ack
            down_free = t
            t += prop
            c = t
        completions[k] = c
        heappush(win_heap, (c, gi))
        pending.append((c, gi, lsu, c - (g if serial else t0), results, k))
        gi += 1

    group.win_free, group.count = win_free, gi
    group.issue_free, group.wp_free = issue_free, wp_free
    group.up_free, group.down_free = up_free, down_free
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
    return _launch(p, group, kind, addrs, completions, results, bg_end,
                   serial, lsu)


# ----------------------------------------------------------------------
# D2D trains (LSU -> DCOH -> DMC / device memory, bias-mode aware)
# ----------------------------------------------------------------------

def try_lsu_d2d_train(p: Any, lsu: Any, op: D2HOp, addrs: List[int],
                      serial: bool = False) -> Optional[
                          Generator[Any, Any, List[float]]]:
    """Attempt to batch ``lsu.d2d(op, addr) for addr in addrs``.

    D2D streams are homogeneous when every line resolves to one bias
    mode, one DMC branch (all-hit or all-miss), and — under host bias —
    a clean host LLC (a dirty host copy takes the data-pull branch).
    Dirty DMC victims evicted by fills are replayed into the device
    channels' write-queue ledgers, exactly like the per-line writeback
    processes they stand in for.  ``serial`` as for
    :func:`try_lsu_train`."""
    if op not in _D2D_OPS or len(addrs) < MIN_TRAIN_LINES:
        return None
    reason = _static_block_reason(p)
    if reason is not None:
        _refuse(reason)
        return None
    t2 = p.t2
    if lsu is not t2.lsu or lsu.dcoh is not t2.dcoh:
        BULK_STATS.fallback("foreign-lsu")
        return None
    if t2.checks_in_flight:
        # A per-line H2D access will peek (and may change) a DMC line
        # later; the replay would apply its DMC work before that.
        BULK_STATS.fallback("h2d-check")
        return None
    K = len(addrs)
    if len(set(addrs)) != K:
        BULK_STATS.fallback("dup-addrs")
        return None

    sim = p.sim
    t0 = sim.now
    dcoh = t2.dcoh
    dmc, llc, dev = dcoh.dmc, p.home.llc, t2.dev_mem
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
    key = ("d2d", op, host_bias)

    reason = _refusal(p, key, addrs, serial,
                      lambda: _lsu_resources(p, "d2d", dev.channels))
    if reason is not None:
        BULK_STATS.fallback(reason)
        return None

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
    channels = dev.channels
    nch = len(channels)
    group = _live_group(p) or _TrainGroup(key, t0, lsu.cfg.lsu_outstanding,
                                          nch)

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
    wq = _ledgers(p)

    completions = [0.0] * K
    results = [0.0] * K
    bg_end = 0.0
    c = t0
    win_free, win_heap = group.win_free, group.win_heap
    issue_free, wp_free = group.issue_free, group.wp_free
    up_free, down_free = group.up_free, group.down_free
    rd_free, pending = group.rd_free, group.pending
    gi = group.count

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if bg_end <= c else bg_end
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
                        vch = channels[(victim // CACHELINE) % nch]
                        vch.writes += 1
                        __, d_end = wq[vch].write(c)
                        if d_end > bg_end:
                            bg_end = d_end
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
                        vch = channels[(victim // CACHELINE) % nch]
                        vch.writes += 1
                        __, d_end = wq[vch].write(t)
                        if d_end > bg_end:
                            bg_end = d_end
                    t += lookup_ns
                c = t
            else:                                # NC_WRITE: posted to DRAM
                dmc.invalidate(addr)
                ch = channels[(addr // CACHELINE) % nch]
                ch.writes += 1
                t, d_end = wq[ch].write(t)
                if d_end > bg_end:
                    bg_end = d_end
                c = t
        completions[k] = c
        heappush(win_heap, (c, gi))
        pending.append((c, gi, lsu, c - (g if serial else t0), results, k))
        gi += 1

    group.win_free, group.count = win_free, gi
    group.issue_free, group.wp_free = issue_free, wp_free
    group.up_free, group.down_free = up_free, down_free
    if is_read and not at_dmc:      # proven misses: counted, not looked up
        dmc.misses += K
    dcoh.d2d_count += K
    if snoops:                      # one request up, one ack down per line
        link = t2.port.link
        link.messages += 2 * K
        link.bytes_moved += (REQ_BYTES + ACK_BYTES) * K
    kind = ("d2d-serial/" if serial else "d2d/") + op.value
    return _launch(p, group, kind, addrs, completions, results, bg_end,
                   serial, lsu)


# ----------------------------------------------------------------------
# H2D nt-store trains (host core -> CXL.mem -> Type-2 device)
# ----------------------------------------------------------------------

def try_h2d_train(p: Any, core: Any, op: HostOp, device: Any,
                  addrs: List[int], serial: bool = False) -> Optional[
                      Generator[Any, Any, List[float]]]:
    """Attempt to batch ``core.cxl_op(NT_STORE, addr, device)`` streams.

    Only the posted nt-store path batches: its foreground is pure
    window/wire arithmetic (the store retires at the CXL controller) and
    the device-side work — bias touch, DMC check, posted DRAM write — is
    replayed into background ledgers.  Loads and ordered stores return
    ``None`` (per-line).  ``serial`` as for :func:`try_lsu_train`."""
    if op is not HostOp.NT_STORE or len(addrs) < MIN_TRAIN_LINES:
        return None
    reason = _static_block_reason(p)
    if reason is not None:
        _refuse(reason)
        return None
    t2 = p.t2
    if device is not t2:
        BULK_STATS.fallback("h2d-target")
        return None
    K = len(addrs)
    if len(set(addrs)) != K:
        BULK_STATS.fallback("dup-addrs")
        return None

    sim = p.sim
    t0 = sim.now
    dcoh = t2.dcoh
    dev_mem = t2.dev_mem
    key = ("h2d", op)
    window = core._win[("cxl", op)]

    def resources() -> List[Any]:
        out = [window, t2.port.link._wires[Direction.TO_DEVICE]]
        for ch in dev_mem.channels:
            out += [ch._wq, ch._drain]
        return out

    reason = _refusal(p, key, addrs, serial, resources)
    if reason is not None:
        BULK_STATS.fallback(reason)
        return None

    # Any resident DMC line takes a coherence-state branch per line.
    if dcoh.dmc.residency(addrs)[0]:
        BULK_STATS.fallback("dmc-state")
        return None

    channels = dev_mem.channels
    nch = len(channels)
    group = _live_group(p) or _TrainGroup(key, t0, window.capacity, nch)

    lcfg = t2.port.link.cfg
    __, ser_data, __, __ = _wire_ns(lcfg)
    prop = lcfg.propagation_ns
    issue_ns = core.cfg.issue_ns
    post_ns = core.cfg.nt_store_post_ns
    fabric_ns = t2.cfg.h2d_fabric_ns
    check_ns = t2.cfg.h2d_dmc_check_ns
    h2d_touch = t2.bias.h2d_touch
    wq = _ledgers(p)

    completions = [0.0] * K
    results = [0.0] * K
    bg_end = 0.0
    c = t0
    win_free, win_heap = group.win_free, group.win_heap
    down_free, pending = group.down_free, group.pending
    gi = group.count

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if bg_end <= c else bg_end
        elif win_free:              # window admission: a free slot now,
            win_free -= 1
            g = t0
        else:                       # else the FIFO release hand-off
            g = heappop(win_heap)[0]
        t = g + issue_ns
        t += post_ns
        t = (t if down_free <= t else down_free) + ser_data
        down_free = t
        c = t + prop                        # retires at the controller
        completions[k] = c
        heappush(win_heap, (c, gi))
        pending.append((c, gi, core, c - (g if serial else t0), results, k))
        gi += 1
        # Background: the posted device-side write spawned at c.
        h2d_touch(addr)
        b = c + fabric_ns
        b += check_ns                       # DMC check: miss, no action
        ch = channels[(addr // CACHELINE) % nch]
        ch.writes += 1
        __, d_end = wq[ch].write(b)
        if d_end > bg_end:
            bg_end = d_end

    group.win_free, group.count, group.down_free = win_free, gi, down_free
    t2.h2d_writes += K
    link = t2.port.link
    link.messages += K
    link.bytes_moved += (REQ_BYTES + DATA_BYTES) * K
    kind = ("h2d-serial/" if serial else "h2d/") + op.value
    return _launch(p, group, kind, addrs, completions, results, bg_end,
                   serial, core)


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
    group (so no resource is held), an empty doorbell queue, and no
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
        if not sim.quiescent or _live_group(p) is not None:
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
    wq = _ledgers(p)
    bg_end = 0.0
    for arrival, addr in writes:
        ch = channels[(addr // CACHELINE) % nch]
        ch.writes += 1
        __, d_end = wq[ch].write(arrival)
        if d_end > bg_end:
            bg_end = d_end
    if bg_end > polled:
        sim.schedule_at(bg_end, _hold)
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
    Eligibility: nothing pending but ghosts, any live group drawn, no
    poison seen in the DMC, and nobody waiting on the doorbell."""
    sim = p.sim
    group = _live_group(p)
    if not _ghosts_only(sim) or (group is not None and not group.drawn):
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
    wq = _ledgers(p)
    bg_end = 0.0
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
        channels = home.mem.channels
        for victim in victims:                 # dirty victim -> DRAM
            vch = channels[(victim // CACHELINE) % len(channels)]
            vch.writes += 1
            __, d_end = wq[vch].write(filled)
            if d_end > bg_end:
                bg_end = d_end
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
        nch = len(channels)
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
                    vch = channels[(victim // CACHELINE) % nch]
                    vch.writes += 1
                    __, d_end = wq[vch].write(t)
                    if d_end > bg_end:
                        bg_end = d_end
        ch = channels[(r // CACHELINE) % nch]
        completed, d_end = wq[ch].write(t)
        if d_end > bg_end:
            bg_end = d_end
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
        ch.writes += 1
        t2.h2d_reads += 1
        t2.bias.h2d_touch(r)
        ch.reads += 1
        link.messages += 2
        link.bytes_moved += REQ_BYTES + DATA_BYTES
        kind = "cmd/complete-nc-wr"
    t2.lsu._jittered(completed - t1)
    core._jittered(read - completed)
    if bg_end > read:
        sim.schedule_at(bg_end, _hold)
    BULK_STATS.batch(kind, 2)
    return completed, read
