"""The runtime flag table (repro.flags): one reader, one override, one
set of spellings per row — and guards that keep every toggle in it."""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

import pytest

from repro import flags
from repro.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
NCPU = os.cpu_count() or 1

# Per row: (env spelling -> value it must read as, a spelling it must
# reject or None when every text is valid).  Upper-case variants are
# checked too: spellings are case-insensitive.
SWITCH = {"1": True, "true": True, "on": True,
          "0": False, "false": False, "off": False}
CASES = {
    "bulk": (SWITCH, "maybe"),
    "checkpoint": ({**SWITCH, "cold": False}, "warm"),
    "workcache": (SWITCH, "maybe"),
    "stats": ({"exact": "exact", "stream": "stream", "streaming": "stream",
               "p2": "stream"}, "bogus"),
    "expcache": ({"1": ".repro_expcache", "on": ".repro_expcache",
                  "true": ".repro_expcache", "0": None, "off": None,
                  "false": None, "/tmp/cells": "/tmp/cells"}, None),
    "jobs": ({"1": 1, "2": 2, "auto": NCPU, "0": NCPU}, None),
}
DEFAULTS = {"bulk": True, "checkpoint": True, "workcache": True,
            "stats": "exact", "expcache": ".repro_expcache", "jobs": 1}
SPELLINGS = [(name, text, value) for name, (words, __) in CASES.items()
             for text, value in words.items()]


def _two_values(name):
    """Two spellings of ``name`` that read as different values."""
    words = CASES[name][0]
    first = next(iter(words))
    second = next(t for t, v in words.items() if v != words[first])
    return first, second


def test_every_row_has_cases():
    assert set(CASES) == set(flags.FLAGS) == set(DEFAULTS)


@pytest.mark.parametrize("name", sorted(flags.FLAGS))
def test_default(monkeypatch, name):
    monkeypatch.delenv(flags.FLAGS[name].env, raising=False)
    assert flags.get(name) == DEFAULTS[name]
    monkeypatch.setenv(flags.FLAGS[name].env, "  ")
    assert flags.get(name) == DEFAULTS[name]


@pytest.mark.parametrize("name,text,value", SPELLINGS)
def test_env_spellings(monkeypatch, name, text, value):
    monkeypatch.setenv(flags.FLAGS[name].env, text)
    assert flags.get(name) == value
    if not text.startswith("/"):
        monkeypatch.setenv(flags.FLAGS[name].env, f" {text.upper()} ")
        assert flags.get(name) == value


@pytest.mark.parametrize("name", sorted(flags.FLAGS))
def test_override_beats_env_and_restores(monkeypatch, name):
    env_text, forced_text = _two_values(name)
    words = CASES[name][0]
    monkeypatch.setenv(flags.FLAGS[name].env, env_text)
    with flags.override(**{name: forced_text}):
        assert flags.get(name) == words[forced_text]
    assert flags.get(name) == words[env_text]


@pytest.mark.parametrize("name", sorted(flags.FLAGS))
def test_override_restores_on_exception(monkeypatch, name):
    env_text, forced_text = _two_values(name)
    monkeypatch.setenv(flags.FLAGS[name].env, env_text)
    with pytest.raises(RuntimeError):
        with flags.override(**{name: forced_text}):
            raise RuntimeError("boom")
    assert flags.get(name) == CASES[name][0][env_text]


def test_overrides_nest_and_take_booleans():
    with flags.override(bulk=False, stats="stream"):
        with flags.override(bulk=True):
            assert flags.get("bulk") is True
            assert flags.get("stats") == "stream"
        assert flags.get("bulk") is False
        with flags.override(expcache=False):
            assert flags.get("expcache") is None


def test_sample_reads_once_per_override_state(monkeypatch):
    """``sample`` keeps get()'s value until an override block opens or
    closes; the outer block keeps this test's samples from outliving
    it."""
    with flags.override(stats="stream"):
        monkeypatch.setenv("REPRO_BULK", "0")
        assert flags.sample("bulk") is False
        monkeypatch.setenv("REPRO_BULK", "1")
        assert flags.sample("bulk") is False    # sampled once
        with flags.override(bulk=False):
            assert flags.sample("bulk") is False
        assert flags.sample("bulk") is True     # that block closed: reread
        assert flags.sample("stats") == "stream"


@pytest.mark.parametrize(
    "name", sorted(n for n, (__, bad) in CASES.items() if bad is not None))
def test_unknown_spelling_raises(monkeypatch, name):
    flag = flags.FLAGS[name]
    bad = CASES[name][1]
    monkeypatch.setenv(flag.env, bad)
    with pytest.raises(ConfigError, match=flag.env) as exc:
        flags.get(name)
    assert all(word in str(exc.value) for word in flag.words)
    with pytest.raises(ConfigError):
        with flags.override(**{name: bad}):
            pass
    monkeypatch.delenv(flag.env)
    assert flags.get(name) == DEFAULTS[name]    # no override left behind


def test_unparseable_jobs_warns_and_runs_serial(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.warns(RuntimeWarning, match="unparseable"):
        assert flags.get("jobs") == 1


# ---------------------------------------------------------------------------
# the experiment cache keys on exactly the keyed rows


def _key_digest() -> str:
    from repro import cli
    from repro.analysis.expcache import ExperimentCache
    args = cli.build_parser().parse_args(["table3"])
    return ExperimentCache.key_digest(cli._cache_key("table3", args))


@pytest.mark.parametrize("name", sorted(flags.FLAGS))
def test_keyed_flags_and_only_they_move_the_cache_key(name):
    first, second = _two_values(name)
    with flags.override(**{name: first}):
        before = _key_digest()
    with flags.override(**{name: second}):
        after = _key_digest()
    assert (before != after) == flags.FLAGS[name].keyed


# ---------------------------------------------------------------------------
# tooling guards: no toggle bypasses the table, no doc names a retired one


def _environment_reads(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in
                ("environ", "getenv") and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(a.name in ("environ", "getenv") for a in node.names):
            yield node.lineno


def test_only_flags_reads_the_environment():
    src = REPO / "src" / "repro"
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "flags.py"
        and path.relative_to(src).parts[0] != "lint"
        for line in _environment_reads(path)
    ]
    assert offenders == []


def test_docs_name_only_flag_variables():
    known = {flag.env for flag in flags.FLAGS.values()} | {"REPRO_SANITIZE"}
    docs = [REPO / "README.md", REPO / ".github" / "workflows" / "ci.yml",
            *sorted((REPO / "docs").glob("*.md"))]
    named = {
        f"{path.relative_to(REPO)}: {name}"
        for path in docs
        for name in re.findall(r"REPRO_[A-Z_]*[A-Z]", path.read_text())
        if name not in known
    }
    assert named == set()
