"""Performance-hazard rules (PERF4xx).

The engine's hot paths are measured (``python -m repro speed``) and
baselined in CI, but the most common way to *creep* slower is idiomatic
code that double-pays scheduling overhead.  These rules flag the known
shapes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, LintModule, Rule, dotted_name

_TRIGGERS = ("succeed", "fail")


def check_perf401(module: LintModule) -> Iterator[Finding]:
    """PERF401: ``sim.call_soon(ev.succeed, ...)`` double-defers.

    ``Event.succeed``/``Event.fail`` already deliver their callbacks
    through the zero-delay queue, so wrapping the trigger in
    ``call_soon`` costs a second trip through the scheduler (and a
    second seq number) for nothing.  Call the trigger directly — unless
    the *trigger itself* must be deferred, e.g. a resource hand-off
    that returns the event untriggered to the caller first; suppress
    those sites with ``# reprolint: disable=PERF401`` and a comment
    saying why.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = dotted_name(node.func)
        if not (func == "call_soon" or func.endswith(".call_soon")):
            continue
        target = node.args[0]
        if isinstance(target, ast.Attribute) and target.attr in _TRIGGERS:
            owner = dotted_name(target.value) or "<event>"
            yield Finding(
                "PERF401", module.path, node.lineno, node.col_offset,
                f"`call_soon({owner}.{target.attr}, ...)` defers a trigger "
                "that already defers its callbacks — call "
                f"`{owner}.{target.attr}(...)` directly, or suppress with "
                "a comment if the double deferral is load-bearing",
            )


_PER_LINE_CHARGES = ("using", "send")


def check_perf402(module: LintModule) -> Iterator[Finding]:
    """PERF402: per-line FIFO charge inside a streaming loop.

    A loop that ``yield from``s a single-grant charge (``Resource.using``,
    ``Link.send``) once per iteration walks the full scheduler once per
    line — the shape the bulk fast-forward layer exists to replace.  Hand
    the stream to a :mod:`repro.core.fastpath` train.  Loops that *must*
    stay per-line (fault
    paths, contended FIFOs whose holders interleave) should carry
    ``# reprolint: disable=PERF402`` on the loop line with a comment
    saying why.
    """
    seen = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.YieldFrom)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Attribute)):
                continue
            attr = sub.value.func.attr
            if attr not in _PER_LINE_CHARGES or sub.lineno in seen:
                continue
            seen.add(sub.lineno)
            owner = dotted_name(sub.value.func.value) or "<obj>"
            yield Finding(
                "PERF402", module.path, node.lineno, node.col_offset,
                f"loop charges `{owner}.{attr}(...)` once per iteration; "
                "use a `repro.core.fastpath` train, or suppress with a "
                "comment if per-line interleaving is load-bearing",
            )


_PERF403_PATHS = ("repro/apps", "repro/experiments")


def _reads_clock(expr: ast.expr) -> bool:
    """Whether the expression reads the simulated clock (``*.now``)."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr == "now":
            return True
    return False


def check_perf403(module: LintModule) -> Iterator[Finding]:
    """PERF403: per-event latency samples accumulated into a bare list.

    In experiment/app code, ``somelist.append(<clock-derived value>)``
    inside a loop grows one entry per simulated event — on a scale run
    that is an unbounded RSS leak (the failure mode ``ext_scale``
    exists to prevent).  Record samples through a latency recorder
    instead (:func:`repro.sim.stats.latency_recorder`, or an injected
    :class:`~repro.sim.stats.StreamingLatencyStats` for shared O(1)
    accumulation).  Sites that *deliberately* keep every sample (a
    bounded result vector that is part of the experiment's payload)
    should carry ``# reprolint: disable=PERF403`` with a comment saying
    what bounds them.
    """
    path = module.path.replace("\\", "/")
    if not any(fragment in path for fragment in _PERF403_PATHS):
        return
    seen = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "append"
                    and len(sub.args) == 1):
                continue
            if sub.lineno in seen or not _reads_clock(sub.args[0]):
                continue
            seen.add(sub.lineno)
            owner = dotted_name(sub.func.value) or "<list>"
            yield Finding(
                "PERF403", module.path, sub.lineno, sub.col_offset,
                f"`{owner}.append(...)` accumulates a clock-derived "
                "sample per loop iteration — unbounded on scale runs; "
                "record through a latency recorder "
                "(repro.sim.stats.latency_recorder), or suppress with "
                "a comment saying what bounds the list",
            )


def _sweep_point_fn_names(tree: ast.AST) -> set:
    """Names referenced as the point-``fn`` of a cold sweep: the second
    argument of ``SweepPoint(...)`` calls and the second element of the
    ``(key, fn, args, kwargs)`` tuples fed to ``SweepSpec.build``.
    ``ForkSpec`` warm-ups and points are deliberately not collected —
    they already share their warm-up through a checkpoint."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = dotted_name(node.func) or ""
        if func == "SweepPoint" or func.endswith(".SweepPoint"):
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                names.add(node.args[1].id)
        elif func == "SweepSpec.build" or func.endswith(".SweepSpec.build"):
            for sub in ast.walk(node):
                if (isinstance(sub, (ast.Tuple, ast.List))
                        and len(sub.elts) >= 2
                        and isinstance(sub.elts[1], ast.Name)):
                    names.add(sub.elts[1].id)
    return names


def check_perf404(module: LintModule) -> Iterator[Finding]:
    """PERF404: a sweep point that rebuilds Platforms on every point.

    A point function that constructs two or more ``Platform`` instances
    (typically its own plus a calibration throwaway) repeats the same
    point-independent warm-up once per swept value — the shape
    :func:`repro.sim.parallel.run_forked_sweep` exists to remove.  Split
    the warm-up into a module-level function, declare the sweep as a
    :class:`~repro.sim.parallel.ForkSpec`, and let every point fork from
    one checkpoint (see ``docs/CHECKPOINT.md``).  Points whose warm-up
    genuinely differs per value (e.g. per-point fault arming) should
    carry ``# reprolint: disable=PERF404`` with a comment saying why.
    """
    point_fns = _sweep_point_fn_names(module.tree)
    if not point_fns:
        return
    for node in module.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in point_fns:
            continue
        sites = [sub for sub in ast.walk(node)
                 if isinstance(sub, ast.Call)
                 and ((dotted_name(sub.func) or "").split(".")[-1]
                      == "Platform")]
        if len(sites) >= 2:
            yield Finding(
                "PERF404", module.path, node.lineno, node.col_offset,
                f"sweep point `{node.name}` constructs {len(sites)} "
                "Platforms per point (its own plus calibration); hoist "
                "the shared warm-up into a ForkSpec and fork each point "
                "from a checkpoint (repro.sim.parallel.run_forked_sweep), "
                "or suppress with a comment saying why every point must "
                "rebuild",
            )


def _bulk_items_arg(call: ast.Call):
    """The ``items`` argument of a ``send_bulk(dst, kind, items, ...)``
    call, positional or keyword; ``None`` if absent."""
    if len(call.args) >= 3:
        return call.args[2]
    for kw in call.keywords:
        if kw.arg == "items":
            return kw.value
    return None


def check_perf405(module: LintModule) -> Iterator[Finding]:
    """PERF405: per-request fabric wire inside a serving loop.

    ``FabricPort.send_bulk`` exists so that one wire carries a whole
    per-destination batch (one ``header_bytes`` charge, ``item_bytes``
    per record, one delivery event at the receiver).  Calling it with a
    single-element literal inside a loop —

        for user, issue in requests:
            port.send_bulk(dst, "req", [(user, issue)], send_ns)

    — pays the header, the sequencing, and the receiver's per-wire
    dispatch once per request: the cross-shard round-trip cost scales
    with requests instead of destinations.  Group the loop's items per
    destination first and issue one wire per group (the shape every
    :mod:`repro.rack.host` sender uses).  A site that genuinely must
    emit one record per wire (e.g. a protocol-ordering probe) should
    carry ``# reprolint: disable=PERF405`` with a comment saying why.
    """
    seen = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "send_bulk"):
                continue
            if sub.lineno in seen:
                continue
            items = _bulk_items_arg(sub)
            if not (isinstance(items, (ast.List, ast.Tuple))
                    and len(items.elts) == 1):
                continue
            seen.add(sub.lineno)
            owner = dotted_name(sub.func.value) or "<port>"
            yield Finding(
                "PERF405", module.path, sub.lineno, sub.col_offset,
                f"`{owner}.send_bulk(...)` sends a single-item wire per "
                "loop iteration — a per-request cross-shard round-trip; "
                "group the items per destination and send one batched "
                "wire per group, or suppress with a comment if one "
                "record per wire is load-bearing",
            )


#: Identifiers whose presence inside an epoch loop shows it consults a
#: quiescence signal (shard idle horizons, the coordinator's pending
#: count, or the fast-forward machinery itself).
_PERF406_MARKERS = frozenset((
    "horizon", "idle_ns", "idle_min", "in_flight", "fastforward",
    "fast_forward", "ff_jumps", "epochs_skipped",
))


def check_perf406(module: LintModule) -> Iterator[Finding]:
    """PERF406: epoch loop polls an empty fabric every barrier.

    A coordinator loop that both collects ``fabric.deliveries(...)``
    and ``pool.step(...)``s its shards once per epoch pays a full
    barrier even when every shard is idle and nothing is in flight —
    exactly the empty 500 µs spins the quiescent-epoch fast-forward in
    :func:`repro.rack.cluster.run_rack` exists to skip.  The loop is
    clean when it consults a quiescence signal anywhere in its body:
    the shards' ``idle_ns`` horizons, ``Fabric.in_flight``,
    ``Simulator.horizon()``, or the fast-forward counters.  A
    coordinator that genuinely must step every epoch (e.g. a lockstep
    trace comparator) should carry ``# reprolint: disable=PERF406``
    with a comment saying why.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        has_deliveries = has_step = quiescent = False
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)):
                if sub.func.attr == "deliveries":
                    has_deliveries = True
                elif sub.func.attr == "step":
                    has_step = True
            if isinstance(sub, ast.Attribute) \
                    and sub.attr in _PERF406_MARKERS:
                quiescent = True
            elif isinstance(sub, ast.Name) and sub.id in _PERF406_MARKERS:
                quiescent = True
        if has_deliveries and has_step and not quiescent:
            yield Finding(
                "PERF406", module.path, node.lineno, node.col_offset,
                "epoch loop steps shards and drains fabric deliveries "
                "without consulting a quiescence signal (idle_ns "
                "horizons, Fabric.in_flight, Simulator.horizon()): "
                "empty barriers spin at full cost — add a quiescent-"
                "epoch fast-forward like repro.rack.cluster.run_rack, "
                "or suppress with a comment if lockstep stepping is "
                "load-bearing",
            )


_EMPTY_CONTAINERS = frozenset(("OrderedDict", "dict", "list", "set",
                               "deque"))


def _is_empty_container(expr: ast.expr) -> bool:
    """``OrderedDict()``, ``dict()``, ``list()``, ``set()``,
    ``deque()``, ``{}`` or ``[]`` — a fresh, empty container."""
    if isinstance(expr, ast.Dict):
        return not expr.keys
    if isinstance(expr, ast.List):
        return not expr.elts
    if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
        name = (dotted_name(expr.func) or "").split(".")[-1]
        return name in _EMPTY_CONTAINERS
    return False


def _iterates_range(comp: ast.ListComp) -> bool:
    return any(isinstance(gen.iter, ast.Call)
               and dotted_name(gen.iter.func) == "range"
               for gen in comp.generators)


def check_perf407(module: LintModule) -> Iterator[Finding]:
    """PERF407: a capacity-sized table of empty containers per instance.

    ``self.sets = [OrderedDict() for _ in range(num_sets)]`` in
    ``__init__`` allocates one container per modelled slot whether or
    not anything ever lands there.  Every construction pays for it, and
    so does every checkpoint snapshot, which pickles each empty
    container (the 60 MB LLC alone is 65,536 sets).  Key a ``dict`` by
    slot index and create entries on first use, as
    :class:`~repro.mem.cache.SetAssociativeCache` does.  A table that is
    genuinely dense (every slot filled at once) should carry
    ``# reprolint: disable=PERF407`` with a comment saying why.
    """
    for func in ast.walk(module.tree):
        if not (isinstance(func, ast.FunctionDef)
                and func.name == "__init__" and func.args.args):
            continue
        self_name = func.args.args[0].arg
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not (isinstance(value, ast.ListComp)
                    and _is_empty_container(value.elt)
                    and _iterates_range(value)):
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name):
                    yield Finding(
                        "PERF407", module.path, node.lineno,
                        node.col_offset,
                        f"`{self_name}.{target.attr}` is a capacity-sized "
                        "table of empty containers: every construction "
                        "and every snapshot pays for each slot; key a "
                        "dict by slot index and create entries on first "
                        "use, or suppress with a comment if the table is "
                        "genuinely dense",
                    )


def check_perf408(module: LintModule) -> Iterator[Finding]:
    """PERF408: a latency recorder fed one sample per loop iteration.

    ``for x in xs: rec.record(x)`` pays the recorder's per-call cost
    once per sample.  ``LatencyStats.extend`` and
    ``StreamingLatencyStats.extend`` take the whole batch in one call,
    with the same result: the streaming recorder runs its moments pass
    and each P² bank's update once per batch, at identical state.  Only
    a single-argument ``record`` of the loop variable itself is flagged;
    keyed calls such as ``slo.record(tenant, latency)`` are not.  A loop
    that must record one at a time (a per-sample reference kept for a
    differential test) should carry ``# reprolint: disable=PERF408``
    with a comment saying why.
    """
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)):
            continue
        target = node.target.id
        calls = (sub for stmt in node.body for sub in ast.walk(stmt)
                 if isinstance(sub, ast.Call)
                 and isinstance(sub.func, ast.Attribute)
                 and sub.func.attr == "record"
                 and not sub.keywords and len(sub.args) == 1
                 and isinstance(sub.args[0], ast.Name)
                 and sub.args[0].id == target)
        call = next(calls, None)
        if call is None:
            continue
        owner = dotted_name(call.func.value) or "<recorder>"
        yield Finding(
            "PERF408", module.path, node.lineno, node.col_offset,
            f"loop calls `{owner}.record({target})` once per sample; "
            f"record the batch with `{owner}.extend(...)`, or suppress "
            "with a comment if one call per sample is load-bearing",
        )


RULES = [
    Rule("PERF401", "redundant call_soon around an Event trigger",
         check_perf401),
    Rule("PERF402", "per-line FIFO charge in a streaming loop",
         check_perf402),
    Rule("PERF403", "unbounded clock-sample accumulation in a bare list",
         check_perf403),
    Rule("PERF404", "sweep point rebuilding Platforms per point",
         check_perf404),
    Rule("PERF405", "per-request fabric wire in a serving loop",
         check_perf405),
    Rule("PERF406", "epoch loop polling an empty fabric every barrier",
         check_perf406),
    Rule("PERF407", "capacity-sized table of empty containers per instance",
         check_perf407),
    Rule("PERF408", "latency recorder fed one sample per loop iteration",
         check_perf408),
]
