"""Every runtime toggle of the simulator, in one table.

Each :class:`Flag` row names a flag, the environment variable that sets
it, its default, and the spellings that variable accepts; any other
spelling raises :class:`~repro.errors.ConfigError`, except that an
unparseable ``REPRO_JOBS`` warns and runs serial.  :func:`get` reads a
flag at call time: an active :func:`override` first, then the
environment, then the default.  Rows marked ``keyed`` select *what* an
experiment computes, so :func:`repro.analysis.expcache.ambient_modes`
puts them in the cache key; every other row is pinned byte-identical by
CI.  docs/API.md ("Runtime flags") lists the rows and where each is
sampled.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional

from repro.errors import ConfigError

__all__ = ["Flag", "FLAGS", "get", "override", "sample"]

_SWITCH: Mapping[str, bool] = {"1": True, "true": True, "on": True,
                               "0": False, "false": False, "off": False}


@dataclass(frozen=True)
class Flag:
    """One toggle: ``words`` maps each accepted spelling (lower case) to
    its value; text outside ``words`` goes to ``other`` when the flag
    takes free-form values, and is an error otherwise."""

    name: str
    env: str
    default: Any
    words: Mapping[str, Any]
    other: Optional[Callable[[str], Any]] = None
    keyed: bool = False

    def parse(self, raw: Any) -> Any:
        """The value of env text or an :func:`override` argument."""
        if isinstance(raw, bool):
            raw = "on" if raw else "off"
        text = str(raw).strip()
        word = text.lower()
        if word in self.words:
            return self.words[word]
        if self.other is not None:
            return self.other(text)
        raise ConfigError(f"{self.env}={raw!r}: expected one of "
                          f"{', '.join(self.words)}")


def _jobs(text: str) -> int:
    """A worker count; ``0`` or ``auto`` means one per CPU."""
    try:
        count = 0 if text.lower() == "auto" else int(text)
    except ValueError:
        warnings.warn(f"unparseable jobs value {text!r}; running serial",
                      RuntimeWarning)
        return 1
    return count if count > 0 else os.cpu_count() or 1


_EXPCACHE_DIR = ".repro_expcache"

FLAGS: Dict[str, Flag] = {flag.name: flag for flag in (
    Flag("bulk", "REPRO_BULK", True, _SWITCH),
    Flag("checkpoint", "REPRO_CHECKPOINT", True, {**_SWITCH, "cold": False}),
    Flag("workcache", "REPRO_WORKCACHE", True, _SWITCH),
    Flag("stats", "REPRO_STATS", "exact",
         {"exact": "exact", "stream": "stream", "streaming": "stream",
          "p2": "stream"}, keyed=True),
    Flag("expcache", "REPRO_EXPCACHE", _EXPCACHE_DIR,
         {word: _EXPCACHE_DIR if on else None
          for word, on in _SWITCH.items()}, other=str),
    Flag("jobs", "REPRO_JOBS", 1, {}, other=_jobs),
)}

_overrides: Dict[str, Any] = {}
# get()'s values under the current override state, for sample().
_sampled: Dict[str, Any] = {}
_UNSET = object()


def get(name: str) -> Any:
    """The current value of flag ``name``."""
    value = _overrides.get(name, _UNSET)
    if value is not _UNSET:
        return value
    flag = FLAGS[name]
    text = os.environ.get(flag.env, "").strip()
    return flag.parse(text) if text else flag.default


def sample(name: str) -> Any:
    """:func:`get`, read once per override state: every
    :func:`override` block forgets the samples as it opens and as it
    closes.  For hot paths (every prospective line train asks for
    ``bulk``).  It keeps nothing on a model object, so a checkpoint or
    a fork carries no sample from the state it was taken in.  The
    environment is read at the first sample; set a ``REPRO_*`` variable
    before the process starts, or use :func:`override`."""
    value = _sampled.get(name, _UNSET)
    if value is _UNSET:
        value = _sampled[name] = get(name)
    return value


@contextmanager
def override(**values: Any) -> Iterator[None]:
    """Force flags for the ``with`` block, beating the environment:
    ``with override(bulk=False, stats="stream"): ...``.  Values take the
    same spellings as the environment plus ``True``/``False``."""
    parsed = {name: FLAGS[name].parse(value)
              for name, value in values.items()}
    saved = dict(_overrides)
    _overrides.update(parsed)
    _sampled.clear()
    try:
        yield
    finally:
        _overrides.clear()
        _overrides.update(saved)
        _sampled.clear()
