"""Content-addressed experiment cache: skip unchanged cells entirely.

Every experiment in this repo is a *pure function* of its code and its
arguments — that is the determinism contract CI byte-diffs on every
push (same seed → byte-identical stdout, at any ``--jobs`` count, with
any feature toggle).  Purity makes experiment output cacheable by
content address: if neither the code that computes a table nor the
arguments it was given changed, the table cannot have changed either,
and re-simulating it is pure waste.  This module gives ``repro all``,
``repro <experiment>``, and CI that memoization.

The cache key is::

    (experiment name,
     code fingerprint — sha256 over the experiment's module source and
       every transitively imported ``repro.*`` module's source, found
       by a static AST walk (no execution, no import side effects),
     the determinism-relevant CLI arguments,
     the ambient modes that select *what* is computed — the ``keyed``
       rows of :mod:`repro.flags`, today only the stats flavour)

Deliberately **excluded** from the key: ``--jobs`` and every other
flag (bulk, workcache, checkpoint) — all are pinned byte-identical by
CI, so a cache entry produced under one setting is valid under every
other.  That exclusion is load-bearing: it is what lets a ``--jobs 4``
run serve a ``--jobs 1`` run's cache entry, and it is only sound
because the byte-identity pins exist.

Entries are one JSON file per key digest under ``.repro_expcache/``
(the ``expcache`` flag: ``REPRO_EXPCACHE=<dir>`` moves it,
``REPRO_EXPCACHE=0`` or ``--no-expcache`` disables it), written
atomically (tempfile + rename) so concurrent runs never observe a torn
entry.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import tempfile
from typing import Any, Dict, Iterable, Optional, Set

from repro import flags

__all__ = [
    "ExperimentCache", "ExpcacheStats", "EXPCACHE_STATS",
    "module_fingerprint", "ambient_modes", "DEFAULT_DIR",
]

DEFAULT_DIR: str = flags.FLAGS["expcache"].default


class ExpcacheStats:
    """Process-global cache telemetry surfaced by ``repro speed``."""

    __slots__ = ("hits", "misses", "stores", "fingerprints")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.fingerprints = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "fingerprints": self.fingerprints,
        }


EXPCACHE_STATS = ExpcacheStats()


# ---------------------------------------------------------------------------
# code fingerprinting
# ---------------------------------------------------------------------------

def _imported_repro_modules(source: str, package: str) -> Set[str]:
    """Statically collect every ``repro.*`` module this source imports.

    Handles ``import repro.x.y``, ``from repro.x import y`` (where ``y``
    may itself be a submodule), and explicit relative imports resolved
    against ``package``.  Names that do not resolve to a real module
    (attributes of a package, typos) are simply dropped — the walk only
    needs the modules whose *files* feed the computation.
    """
    wanted: Set[str] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    wanted.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the owning package.
                parts = package.split(".")
                if node.level > len(parts):
                    continue
                base = ".".join(parts[:len(parts) - node.level + 1])
                module = (f"{base}.{node.module}" if node.module else base)
            else:
                module = node.module or ""
            if module != "repro" and not module.startswith("repro."):
                continue
            wanted.add(module)
            for alias in node.names:
                # ``from repro.experiments import fig8_tail_latency``:
                # the imported names may be submodules.
                wanted.add(f"{module}.{alias.name}")
    return wanted


def _module_file(name: str) -> Optional[str]:
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin in (None, "built-in", "frozen"):
        return None
    return spec.origin if spec.origin.endswith(".py") else None


_fingerprint_cache: Dict[str, str] = {}


def module_fingerprint(module_name: str) -> str:
    """sha256 over ``module_name``'s source and the sources of every
    ``repro.*`` module reachable from it through static imports.

    The digest is order-independent (files are combined sorted by
    module name) and process-independent (file bytes only, no ``hash``
    salting, no timestamps).  Memoized per process: code on disk does
    not change under a running sweep.
    """
    cached = _fingerprint_cache.get(module_name)
    if cached is not None:
        return cached
    seen: Dict[str, str] = {}
    frontier = [module_name]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        path = _module_file(name)
        if path is None:
            seen[name] = ""           # keep the name; nothing to hash
            continue
        try:
            with open(path, "rb") as fh:
                source_bytes = fh.read()
        except OSError:
            seen[name] = ""
            continue
        seen[name] = hashlib.sha256(source_bytes).hexdigest()
        package = name if _is_package(name) else name.rsplit(".", 1)[0]
        try:
            source = source_bytes.decode("utf-8")
            frontier.extend(_imported_repro_modules(source, package))
        except (SyntaxError, UnicodeDecodeError):
            pass
    combined = hashlib.sha256()
    for name in sorted(seen):
        if seen[name]:
            combined.update(f"{name}={seen[name]}\n".encode())
    digest = combined.hexdigest()
    _fingerprint_cache[module_name] = digest
    EXPCACHE_STATS.fingerprints += 1
    return digest


def _is_package(name: str) -> bool:
    path = _module_file(name)
    return bool(path) and os.path.basename(path) == "__init__.py"


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------

class ExperimentCache:
    """One JSON file per content-addressed key under ``root``."""

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None else (
            flags.get("expcache") or DEFAULT_DIR)

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    @staticmethod
    def key_digest(key: Dict[str, Any]) -> str:
        canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def lookup(self, key: Dict[str, Any]) -> Optional[str]:
        """The cached stdout for ``key``, or None.  A corrupt or
        unreadable entry is a miss, never an error."""
        path = self._path(self.key_digest(key))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            EXPCACHE_STATS.misses += 1
            return None
        output = entry.get("stdout")
        if not isinstance(output, str):
            EXPCACHE_STATS.misses += 1
            return None
        EXPCACHE_STATS.hits += 1
        return output

    def store(self, key: Dict[str, Any], stdout: str) -> None:
        """Atomically persist ``stdout`` under ``key``.  Best-effort: a
        read-only filesystem degrades to not caching, never to failing
        the experiment that just ran."""
        digest = self.key_digest(key)
        entry = {"key": key, "stdout": stdout}
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh, sort_keys=True)
                os.replace(tmp, self._path(digest))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return
        EXPCACHE_STATS.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed


def ambient_modes() -> Dict[str, Any]:
    """The ``keyed`` flags: the modes that select *what* an experiment
    computes, and therefore belong in the cache key.  Every other flag is
    pinned byte-identical, so entries are valid across all of them."""
    return {flag.name: flags.get(flag.name)
            for flag in flags.FLAGS.values() if flag.keyed}
