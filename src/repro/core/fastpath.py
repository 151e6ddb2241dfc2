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
  preserving the RNG stream exactly.

Background work (posted-write drains, dirty-victim writebacks) is
charged into per-channel write-queue ledgers and covered by ghost
processes so the simulation clock ends on the same final timestamp as
the per-line run.

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
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro import flags
from repro.core.requests import BiasMode, D2HOp, HostOp
from repro.devices.dcoh import HOST_BIAS_WRITE_GAP_EXTRA_NS, DcohSlice
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


class _TrainGroup:
    """Ledger shared by all trains departing at one timestamp.

    Fig 6's bandwidth phase spawns ``depth`` whole-transfer processes at
    a single timestamp; per-line, their children interleave only through
    FIFO resources, so later trains simply *extend* the first train's
    pipeline state.  The group carries that state — window release
    stream, per-stage free floats, per-channel write-queue ledgers — and
    the deferred jitter draws of every member train.
    """

    __slots__ = ("key", "t0", "horizon", "count", "drawn", "pending",
                 "claimed", "win_free", "win_heap", "issue_free", "wp_free",
                 "up_free", "down_free", "rd_free", "wq")

    def __init__(self, key: tuple, t0: float, window: int):
        self.key = key
        self.t0 = t0
        self.horizon = t0
        self.count = 0                # global child index across trains
        self.drawn = False
        self.pending: List[tuple] = []
        self.claimed: set = set()
        self.win_free = window
        self.win_heap: List[Tuple[float, int]] = []
        self.issue_free = 0.0
        self.wp_free = 0.0
        self.up_free = 0.0
        self.down_free = 0.0
        self.rd_free: Dict[Any, float] = {}
        self.wq: Dict[Any, _ChannelLedger] = {}

    def grant(self, t0: float) -> float:
        """Window admission: free slot now, else FIFO release hand-off."""
        if self.win_free > 0:
            self.win_free -= 1
            return t0
        return heapq.heappop(self.win_heap)[0]

    def wq_for(self, channel: Any) -> _ChannelLedger:
        ledger = self.wq.get(channel)
        if ledger is None:
            ledger = self.wq[channel] = _ChannelLedger(channel)
        return ledger


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
    if type(dcoh) is not DcohSlice:        # DcohArray facade: per-line only
        return "dcoh-array"
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


def _all_idle(resources: List[Any]) -> bool:
    return all(r.in_use == 0 and not r._waiters for r in resources)


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


def _lsu_resources(p: Any, lsu: Any, channels: List[Any]) -> List[Any]:
    """Every shared resource an LSU train's lines can queue on."""
    t2 = p.t2
    resources = [lsu._window, lsu._issue, t2.dcoh._write_pipe]
    resources += [extra._window for extra in t2._extra_lsus]
    resources += list(t2.port.link._wires.values())
    for ch in channels:
        resources += [ch._wq, ch._drain, ch._read_bw]
    return resources


def _unexpected_writeback(addr: int) -> None:
    raise SimulationError(
        f"bulk train evicted a dirty line ({hex(addr)}) the eligibility "
        "pre-scan promised could not exist")


def _ghost(until: float) -> Generator[Any, Any, None]:
    """Hold the clock open until batched background work would finish."""
    yield WakeAt(until)


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
        for __, __, fn, raw, res, i in sorted(
                group.pending, key=lambda e: (e[0], e[1])):
            res[i] = fn(raw)
    return out


def _launch(p: Any, group: _TrainGroup, addrs: List[int],
            completions: List[float], results: List[float], bg_end: float,
            serial: bool) -> Generator[Any, Any, List[float]]:
    """Publish a built train and return the generator the caller runs.

    A ghost holds the clock open past the foreground end until the
    background work the train charged would drain.  A pipelined train
    returns its completion times; a serial one returns its jittered
    latencies, as ``[run_process(op(a)) for a in addrs]`` would."""
    group.claimed.update(addrs)
    fore_end = max(completions)
    if bg_end > group.horizon or fore_end > group.horizon:
        group.horizon = max(group.horizon, fore_end, bg_end)
    p._bulk_group = group
    family, op = group.key[0], group.key[1]
    if bg_end > fore_end:
        p.sim.spawn(_ghost(bg_end), f"bulk.{family}.bg")
    mode = "-serial" if serial else ""
    BULK_STATS.batch(f"{family}{mode}/{op.value}", len(addrs))
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
        if reason != "disabled":
            BULK_STATS.fallback(reason)
        return None
    t2 = p.t2
    if lsu is not t2.lsu or lsu.dcoh is not t2.dcoh:
        BULK_STATS.fallback("foreign-lsu")
        return None
    if len(set(addrs)) != len(addrs):
        BULK_STATS.fallback("dup-addrs")
        return None

    sim = p.sim
    t0 = sim.now
    dcoh, home = t2.dcoh, p.home
    hmc, llc, mem = dcoh.hmc, home.llc, home.mem
    key = ("d2h", op)

    reason = _refusal(p, key, addrs, serial,
                      lambda: _lsu_resources(p, lsu, mem.channels))
    if reason is not None:
        BULK_STATS.fallback(reason)
        return None

    # -- branch pre-scan: every line must take one uniform path ---------
    hmc_lines = [hmc.peek(a) for a in addrs]
    if any(line is not None and line.poisoned for line in hmc_lines):
        BULK_STATS.fallback("poison")
        return None
    hmc_hit = all(line is not None for line in hmc_lines)
    hmc_miss = all(line is None for line in hmc_lines)
    llc_present = [llc.peek(a) is not None for a in addrs]
    llc_hit = all(llc_present)
    llc_miss = not any(llc_present)

    is_read = op in (D2HOp.NC_READ, D2HOp.CS_READ)
    if is_read:
        if hmc_hit:
            branch = "hmc"
        elif hmc_miss and llc_hit:
            branch = "llc"
        elif hmc_miss and llc_miss:
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
        if not (llc_hit or llc_miss):
            BULK_STATS.fallback("mixed-branch")
            return None
        branch = "llc" if llc_hit else "mem"
        # Keep every channel's queue below capacity so enqueue-complete
        # times stay monotone across channels (no cross-channel
        # reordering at the shared ack wire).
        if (not serial
                and len(addrs) > mem.channels[0].cfg.write_queue_entries):
            BULK_STATS.fallback("wq-depth")
            return None
    else:                                   # NC_P
        branch = "push"

    # -- eligibility proven: build the train ----------------------------
    group = _live_group(p) or _TrainGroup(key, t0, lsu.cfg.lsu_outstanding)

    lcfg = t2.port.link.cfg
    ser_req = lcfg.serialization_ns(REQ_BYTES)
    ser_data_up = lcfg.serialization_ns(REQ_BYTES + DATA_BYTES)
    ser_data_down = lcfg.serialization_ns(DATA_BYTES)
    ser_ack = lcfg.serialization_ns(ACK_BYTES)
    prop = lcfg.propagation_ns
    issue_ns = lsu.cfg.lsu_issue_ns
    engine_ns = lsu.cfg.dcoh.engine_ns
    lookup_ns = lsu.cfg.dcoh.lookup_ns
    gap_ns = lsu.cfg.dcoh.write_issue_gap_ns
    costs = dcoh.costs
    llc_ns = home.cfg.llc_ns
    bw_ns = CACHELINE / mem.channels[0].cfg.bytes_per_ns
    read_ns = mem.channels[0].cfg.read_ns
    cs_fill = op is D2HOp.CS_READ
    victims: List[int] = []

    K = len(addrs)
    completions = [0.0] * K
    results = [0.0] * K
    bg_end = 0.0
    c = t0
    up_msgs = up_bytes = down_msgs = down_bytes = 0

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if bg_end <= c else bg_end
        else:
            g = group.grant(t0)
        gi = group.count
        group.count += 1
        # lsu.issue (FIFO, one slot per fabric cycle) + DCOH front end
        t = (g if group.issue_free <= g else group.issue_free) + issue_ns
        group.issue_free = t
        t += engine_ns
        t += lookup_ns
        if is_read:
            line = hmc.lookup(addr)
            if branch == "hmc":
                t += lookup_ns                       # HMC data array
                c = t
                if cs_fill:                          # Table III: ends Shared
                    line.state = LineState.SHARED
            else:
                u = t if group.up_free <= t else group.up_free
                t = u + ser_req
                group.up_free = t
                t += prop
                up_msgs += 1
                up_bytes += REQ_BYTES
                t += costs.read_ns
                line = llc.lookup(addr)
                t += llc_ns
                if branch == "llc":
                    if cs_fill and line.state.needs_downgrade_for_share:
                        line.state = LineState.SHARED
                else:
                    t += costs.miss_extra_ns
                    ch = mem.channel_for(addr)
                    ch.reads += 1
                    free = group.rd_free.get(ch, 0.0)
                    t = (t if free <= t else free) + bw_ns
                    group.rd_free[ch] = t
                    t += read_ns
                d = t if group.down_free <= t else group.down_free
                t = d + ser_data_down
                group.down_free = t
                t += prop
                down_msgs += 1
                down_bytes += DATA_BYTES
                c = t
                if cs_fill:
                    hmc.insert(addr, LineState.SHARED,
                               writeback=_unexpected_writeback)
        else:
            wp = t if group.wp_free <= t else group.wp_free
            t = wp + gap_ns
            group.wp_free = t
            hmc.invalidate(addr)                     # Table III: -> Invalid
            u = t if group.up_free <= t else group.up_free
            t = u + ser_data_up
            group.up_free = t
            t += prop
            up_msgs += 1
            up_bytes += REQ_BYTES + DATA_BYTES
            t += costs.write_ns
            if op is D2HOp.NC_WRITE:
                if branch == "llc":
                    t += llc_ns
                    llc.set_state(addr, LineState.INVALID)
                ch = mem.channel_for(addr)
                ch.writes += 1
                t, d_end = group.wq_for(ch).write(t)
                if d_end > bg_end:
                    bg_end = d_end
            else:                                    # NC_P -> host LLC
                t += llc_ns
                del victims[:]
                llc.insert(addr, LineState.MODIFIED,
                           writeback=victims.append)
                for victim in victims:               # dirty victim -> DRAM
                    vch = mem.channel_for(victim)
                    vch.writes += 1
                    __, d_end = group.wq_for(vch).write(t)
                    if d_end > bg_end:
                        bg_end = d_end
            d = t if group.down_free <= t else group.down_free
            t = d + ser_ack
            group.down_free = t
            t += prop
            down_msgs += 1
            down_bytes += ACK_BYTES
            c = t
        completions[k] = c
        heapq.heappush(group.win_heap, (c, gi))
        group.pending.append((c, gi, lsu._jittered,
                              c - (g if serial else t0), results, k))

    dcoh.d2h_count += K
    link = t2.port.link
    link.messages += up_msgs + down_msgs
    link.bytes_moved += up_bytes + down_bytes
    return _launch(p, group, addrs, completions, results, bg_end, serial)


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
        if reason != "disabled":
            BULK_STATS.fallback(reason)
        return None
    t2 = p.t2
    if lsu is not t2.lsu or lsu.dcoh is not t2.dcoh:
        BULK_STATS.fallback("foreign-lsu")
        return None
    if len(set(addrs)) != len(addrs):
        BULK_STATS.fallback("dup-addrs")
        return None

    sim = p.sim
    t0 = sim.now
    dcoh = t2.dcoh
    dmc, llc, dev = dcoh.dmc, p.home.llc, t2.dev_mem
    try:
        biases = {dcoh._bias_of(a) for a in addrs}
    except DeviceError:
        BULK_STATS.fallback("bias-error")
        return None
    if len(biases) != 1:
        BULK_STATS.fallback("mixed-bias")
        return None
    host_bias = biases.pop() is BiasMode.HOST
    key = ("d2d", op, host_bias)

    reason = _refusal(p, key, addrs, serial,
                      lambda: _lsu_resources(p, lsu, dev.channels))
    if reason is not None:
        BULK_STATS.fallback(reason)
        return None

    # -- branch pre-scan: one uniform path for every line ---------------
    dmc_lines = [dmc.peek(a) for a in addrs]
    if any(line is not None and line.poisoned for line in dmc_lines):
        BULK_STATS.fallback("poison")
        return None
    dmc_hit = all(line is not None for line in dmc_lines)
    dmc_miss = all(line is None for line in dmc_lines)
    # NC-wr invalidates the DMC line regardless of residency — the only
    # op whose path does not branch on hit/miss.
    if not (dmc_hit or dmc_miss) and op is not D2HOp.NC_WRITE:
        BULK_STATS.fallback("mixed-branch")
        return None
    branch = "dmc" if dmc_hit else "mem"

    is_read = op in _D2D_READS
    # Host-bias snoop runs for every write, and for reads only on a DMC
    # miss; a dirty host copy takes the data-pull branch per line.
    snoops = host_bias and (not is_read or branch == "mem")
    if snoops and any(llc.state_of(a).is_dirty for a in addrs):
        BULK_STATS.fallback("llc-dirty")
        return None
    fills = branch == "mem" and op in (D2HOp.CS_READ, D2HOp.CO_READ,
                                       D2HOp.CO_WRITE)
    if fills and any(line.poisoned for line in dmc.lines()):
        # A poisoned victim would defer device-memory poison through
        # ``_poisoned_writebacks`` — per-line machinery only.
        BULK_STATS.fallback("poison")
        return None

    # -- eligibility proven: build the train ----------------------------
    group = _live_group(p) or _TrainGroup(key, t0, lsu.cfg.lsu_outstanding)

    lcfg = t2.port.link.cfg
    ser_req = lcfg.serialization_ns(REQ_BYTES)
    ser_ack = lcfg.serialization_ns(ACK_BYTES)
    prop = lcfg.propagation_ns
    issue_ns = lsu.cfg.lsu_issue_ns
    engine_ns = lsu.cfg.dcoh.engine_ns
    lookup_ns = lsu.cfg.dcoh.lookup_ns
    gap_ns = lsu.cfg.dcoh.write_issue_gap_ns
    if host_bias:
        gap_ns = gap_ns + HOST_BIAS_WRITE_GAP_EXTRA_NS
    write_ns = dcoh.costs.write_ns
    bw_ns = CACHELINE / dev.channels[0].cfg.bytes_per_ns
    read_ns = dev.channels[0].cfg.read_ns
    fill_state = (LineState.SHARED if op is D2HOp.CS_READ
                  else LineState.EXCLUSIVE if op is D2HOp.CO_READ
                  else LineState.MODIFIED)
    victims: List[int] = []

    K = len(addrs)
    completions = [0.0] * K
    results = [0.0] * K
    bg_end = 0.0
    c = t0
    up_msgs = up_bytes = down_msgs = down_bytes = 0

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if bg_end <= c else bg_end
        else:
            g = group.grant(t0)
        gi = group.count
        group.count += 1
        t = (g if group.issue_free <= g else group.issue_free) + issue_ns
        group.issue_free = t
        t += engine_ns
        t += lookup_ns
        if is_read:
            dmc.lookup(addr)                     # hit/miss + LRU effects
            if branch == "dmc":
                t += lookup_ns                   # DMC data array
                c = t
            else:
                if host_bias:                    # snoop: clean, ack back
                    u = t if group.up_free <= t else group.up_free
                    t = u + ser_req
                    group.up_free = t
                    t += prop
                    up_msgs += 1
                    up_bytes += REQ_BYTES
                    t += write_ns
                    d = t if group.down_free <= t else group.down_free
                    t = d + ser_ack
                    group.down_free = t
                    t += prop
                    down_msgs += 1
                    down_bytes += ACK_BYTES
                ch = dev.channel_for(addr)
                ch.reads += 1
                free = group.rd_free.get(ch, 0.0)
                t = (t if free <= t else free) + bw_ns
                group.rd_free[ch] = t
                t += read_ns
                c = t
                if op is not D2HOp.NC_READ:
                    del victims[:]
                    dmc.insert(addr, fill_state, writeback=victims.append)
                    for victim in victims:       # dirty victim -> dev DRAM
                        vch = dev.channel_for(victim)
                        vch.writes += 1
                        __, d_end = group.wq_for(vch).write(c)
                        if d_end > bg_end:
                            bg_end = d_end
        else:
            wp = t if group.wp_free <= t else group.wp_free
            t = wp + gap_ns
            group.wp_free = t
            if host_bias:                        # snoop: clean, invalidate
                u = t if group.up_free <= t else group.up_free
                t = u + ser_req
                group.up_free = t
                t += prop
                up_msgs += 1
                up_bytes += REQ_BYTES
                t += write_ns
                if llc.state_of(addr).is_valid:
                    llc.set_state(addr, LineState.INVALID)
                d = t if group.down_free <= t else group.down_free
                t = d + ser_ack
                group.down_free = t
                t += prop
                down_msgs += 1
                down_bytes += ACK_BYTES
            if op is D2HOp.CO_WRITE:
                if branch == "dmc":
                    line = dmc.peek(addr)
                    t += lookup_ns
                    line.state = LineState.MODIFIED
                    line.scrub_poison()
                else:
                    del victims[:]
                    dmc.insert(addr, LineState.MODIFIED,
                               writeback=victims.append)
                    for victim in victims:       # dirty victim -> dev DRAM
                        vch = dev.channel_for(victim)
                        vch.writes += 1
                        __, d_end = group.wq_for(vch).write(t)
                        if d_end > bg_end:
                            bg_end = d_end
                    t += lookup_ns
                c = t
            else:                                # NC_WRITE: posted to DRAM
                dmc.invalidate(addr)
                ch = dev.channel_for(addr)
                ch.writes += 1
                t, d_end = group.wq_for(ch).write(t)
                if d_end > bg_end:
                    bg_end = d_end
                c = t
        completions[k] = c
        heapq.heappush(group.win_heap, (c, gi))
        group.pending.append((c, gi, lsu._jittered,
                              c - (g if serial else t0), results, k))

    dcoh.d2d_count += K
    link = t2.port.link
    link.messages += up_msgs + down_msgs
    link.bytes_moved += up_bytes + down_bytes
    return _launch(p, group, addrs, completions, results, bg_end, serial)


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
        if reason != "disabled":
            BULK_STATS.fallback(reason)
        return None
    t2 = p.t2
    if device is not t2:
        BULK_STATS.fallback("h2d-target")
        return None
    if len(set(addrs)) != len(addrs):
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
    if any(dcoh.dmc.peek(a) is not None for a in addrs):
        BULK_STATS.fallback("dmc-state")
        return None

    group = _live_group(p) or _TrainGroup(key, t0, window.capacity)

    lcfg = t2.port.link.cfg
    ser_data = lcfg.serialization_ns(REQ_BYTES + DATA_BYTES)
    prop = lcfg.propagation_ns
    issue_ns = core.cfg.issue_ns
    post_ns = core.cfg.nt_store_post_ns
    fabric_ns = t2.cfg.h2d_fabric_ns
    check_ns = t2.cfg.h2d_dmc_check_ns

    K = len(addrs)
    completions = [0.0] * K
    results = [0.0] * K
    bg_end = 0.0
    c = t0

    for k, addr in enumerate(addrs):
        if serial:                  # the previous line's drain end
            g = c if bg_end <= c else bg_end
        else:
            g = group.grant(t0)
        gi = group.count
        group.count += 1
        t = g + issue_ns
        t += post_ns
        w = t if group.down_free <= t else group.down_free
        t = w + ser_data
        group.down_free = t
        c = t + prop                        # retires at the controller
        completions[k] = c
        heapq.heappush(group.win_heap, (c, gi))
        group.pending.append((c, gi, core._jittered,
                              c - (g if serial else t0), results, k))
        # Background: the posted device-side write spawned at c.
        t2.bias.h2d_touch(addr)
        b = c + fabric_ns
        b += check_ns                       # DMC check: miss, no action
        ch = dev_mem.channel_for(addr)
        ch.writes += 1
        __, d_end = group.wq_for(ch).write(b)
        if d_end > bg_end:
            bg_end = d_end

    t2.h2d_writes += K
    link = t2.port.link
    link.messages += K
    link.bytes_moved += (REQ_BYTES + DATA_BYTES) * K
    return _launch(p, group, addrs, completions, results, bg_end, serial)
