"""Fold a cProfile run into the simulator's layers.

A function belongs to the layer of the module that defines it (the
``repro`` packages, numpy, pickle, and multiprocessing/selectors as
``ipc``).  Everything else -- C builtins and the rest of the standard
library -- is charged to the layer of whoever called it, using the
per-caller timings cProfile keeps, so a ``dict`` lookup inside the
memory model counts as ``mem``.  This is also why the generator ``send``
that resumes a simulated process lands in ``sim.engine``: its caller is
the engine, and no name matching is involved.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

LAYERS = ("sim.engine", "sim.timers", "sim.checkpoint", "sim.parallel",
          "sim.stats", "sim.rng", "interconnect", "devices", "mem", "host",
          "core.fastpath", "core", "kernel.codec", "kernel.cache", "kernel",
          "apps", "rack", "ras", "experiments", "pickle", "ipc", "numpy",
          "other")

# Paths under ``repro/``; the first matching prefix wins.
_REPRO_LAYERS = (
    ("sim/timers.py", "sim.timers"),
    ("sim/checkpoint.py", "sim.checkpoint"),
    ("sim/parallel.py", "sim.parallel"),
    ("sim/stats.py", "sim.stats"),
    ("sim/rng.py", "sim.rng"),
    ("sim/bulk.py", "core.fastpath"),
    ("sim/", "sim.engine"),
    ("interconnect/", "interconnect"),
    ("devices/", "devices"),
    ("mem/", "mem"),
    ("host/", "host"),
    ("core/fastpath.py", "core.fastpath"),
    ("core/", "core"),
    ("kernel/compress.py", "kernel.codec"),
    ("kernel/xxhash.py", "kernel.codec"),
    ("kernel/workcache.py", "kernel.cache"),
    ("kernel/pagestore.py", "kernel.cache"),
    ("kernel/", "kernel"),
    ("apps/", "apps"),
    ("rack/", "rack"),
    ("faults.py", "ras"),
    ("resilience.py", "ras"),
    ("lint/", "ras"),
    ("experiments/", "experiments"),
)

_PICKLE_FILES = ("/pickle.py", "/copyreg.py", "/pickletools.py",
                 "/multiprocessing/reduction.py")

Func = Tuple[str, int, str]


def own_layer(func: Func) -> Optional[str]:
    """The layer that defines ``func``, or None when it is charged to its
    caller (builtins and the rest of the standard library)."""
    filename, _line, name = func
    if filename == "~":
        if "pickle" in name:
            return "pickle"
        if "numpy" in name:
            return "numpy"
        return None
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        rel = path[marker + len("/repro/"):]
        for prefix, layer in _REPRO_LAYERS:
            if rel.startswith(prefix):
                return layer
        return "other"
    if "/numpy/" in path:
        return "numpy"
    if path.endswith(_PICKLE_FILES):
        return "pickle"
    if "/multiprocessing/" in path or path.endswith("/selectors.py"):
        return "ipc"
    if "/benchmarks/e2e/" in path:
        return "other"
    return None


def fold(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """``pstats.Stats(...).stats`` -> ``{layer: {"self_s", "calls"}}``
    for every layer in :data:`LAYERS`."""
    # cProfile keeps per-caller entries as (calls, primitive calls, self
    # time, cumulative time).  Time is split by time and calls by calls,
    # so call counts repeat exactly from run to run.
    shares: Dict[Tuple[Func, int], Dict[str, float]] = {}

    def owners(func: Func, weight: int,
               visiting: frozenset) -> Dict[str, float]:
        """How ``func``'s time (weight 2) or calls (weight 0) split over
        layers; the fractions sum to 1."""
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if (func, weight) in shares:
            return shares[func, weight]
        callers = stats[func][4] if func in stats else {}
        if func in visiting or not callers:
            return {"other": 1.0}
        total = sum(entry[weight] for entry in callers.values())
        out: Dict[str, float] = {}
        for caller, entry in callers.items():
            part = entry[weight] / total if total else 1.0 / len(callers)
            for owner, share in owners(caller, weight,
                                       visiting | {func}).items():
                out[owner] = out.get(owner, 0.0) + part * share
        shares[func, weight] = out
        return out

    folded = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func, (_cc, calls, self_s, _cum, callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            folded[layer]["self_s"] += self_s
            folded[layer]["calls"] += calls
            continue
        if not callers:
            folded["other"]["self_s"] += self_s
            folded["other"]["calls"] += calls
            continue
        for caller, entry in callers.items():
            visiting = frozenset({func})
            for owner, share in owners(caller, 2, visiting).items():
                folded[owner]["self_s"] += entry[2] * share
            for owner, share in owners(caller, 0, visiting).items():
                folded[owner]["calls"] += entry[0] * share
    return folded
