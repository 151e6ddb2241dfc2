"""Tests for the content-addressed experiment cache (repro.analysis.expcache).

The contract under test: an unchanged (experiment, code fingerprint,
args, ambient modes) key serves the exact stored stdout; *any* change to
a transitively imported ``repro.*`` source file changes the fingerprint
and misses; corruption and filesystem trouble degrade to a miss or a
skipped store, never to a wrong table or a failed experiment.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import flags
from repro.analysis.expcache import (
    EXPCACHE_STATS,
    ExperimentCache,
    ambient_modes,
    module_fingerprint,
    _imported_repro_modules,
)


@pytest.fixture
def cache(tmp_path):
    return ExperimentCache(root=str(tmp_path / "cache"))


KEY = {"experiment": "fig0", "code": "abc123", "args": {"reps": 3},
       "modes": {"stats": "exact"}}


def _served_twice(monkeypatch, tmp_path) -> bool:
    """Run a stub cacheable experiment twice through the CLI's cache
    path, from ``tmp_path``; True when the second run was a cache hit."""
    from repro import cli
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setitem(cli.RUNNERS, "table3",
                        lambda args: calls.append(args) or "table\n")
    args = cli.build_parser().parse_args(["table3"])
    cli._run_cached("table3", args)
    cli._run_cached("table3", args)
    return len(calls) == 1


class TestToggle:
    """The flag's spellings are tested once, in tests/test_flags.py;
    these pin that the CLI and :class:`ExperimentCache` sample it."""

    def test_default_is_on(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_EXPCACHE", raising=False)
        assert _served_twice(monkeypatch, tmp_path)
        assert (tmp_path / ".repro_expcache").is_dir()

    @pytest.mark.parametrize("value", ["0", "false", "off"])
    def test_env_disables(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("REPRO_EXPCACHE", value)
        assert not _served_twice(monkeypatch, tmp_path)
        assert not (tmp_path / ".repro_expcache").exists()

    def test_env_path_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXPCACHE", str(tmp_path / "somewhere"))
        assert ExperimentCache().root == str(tmp_path / "somewhere")

    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPCACHE", raising=False)
        assert ExperimentCache().root == ".repro_expcache"

    def test_forced_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXPCACHE", "0")
        with flags.override(expcache=True):
            assert _served_twice(monkeypatch, tmp_path)


class TestLookupStore:
    def test_miss_then_hit_round_trips_stdout(self, cache):
        assert cache.lookup(KEY) is None
        cache.store(KEY, "table body\nrow 1\n")
        assert cache.lookup(KEY) == "table body\nrow 1\n"

    def test_distinct_keys_do_not_collide(self, cache):
        cache.store(KEY, "one")
        other = dict(KEY, args={"reps": 4})
        assert cache.lookup(other) is None
        cache.store(other, "two")
        assert cache.lookup(KEY) == "one"
        assert cache.lookup(other) == "two"

    def test_key_digest_is_canonical(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert ExperimentCache.key_digest(a) == ExperimentCache.key_digest(b)

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.store(KEY, "good")
        path = cache._path(cache.key_digest(KEY))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.lookup(KEY) is None

    def test_entry_without_stdout_is_a_miss(self, cache):
        cache.store(KEY, "good")
        path = cache._path(cache.key_digest(KEY))
        with open(path, "w") as fh:
            json.dump({"key": KEY, "stdout": 42}, fh)
        assert cache.lookup(KEY) is None

    def test_store_leaves_no_temp_droppings(self, cache):
        cache.store(KEY, "x")
        names = os.listdir(cache.root)
        assert all(name.endswith(".json") for name in names)

    def test_store_on_unwritable_root_degrades_silently(self):
        cache = ExperimentCache(root="/proc/definitely/not/writable")
        cache.store(KEY, "x")          # must not raise
        assert cache.lookup(KEY) is None

    def test_clear_removes_entries(self, cache):
        cache.store(KEY, "x")
        cache.store(dict(KEY, experiment="fig1"), "y")
        assert cache.clear() == 2
        assert cache.lookup(KEY) is None

    def test_stats_count_hits_misses_stores(self, cache):
        EXPCACHE_STATS.reset()
        cache.lookup(KEY)
        cache.store(KEY, "x")
        cache.lookup(KEY)
        snap = EXPCACHE_STATS.snapshot()
        assert snap["misses"] == 1
        assert snap["stores"] == 1
        assert snap["hits"] == 1


class TestFingerprint:
    def test_static_import_walk_finds_all_forms(self):
        source = (
            "import repro.sim.engine\n"
            "from repro.kernel import zswap\n"
            "from repro.units import ms\n"
            "from . import helper\n"
            "from .sibling import thing\n"
            "import os, json\n"
        )
        found = _imported_repro_modules(source, "repro.experiments")
        assert "repro.sim.engine" in found
        assert "repro.kernel.zswap" in found
        assert "repro.units" in found
        assert "repro.experiments.helper" in found
        assert "repro.experiments.sibling" in found
        assert not any(name.startswith(("os", "json")) for name in found)

    def test_fingerprint_is_stable_and_memoized(self):
        a = module_fingerprint("repro.experiments.fig3_d2h")
        b = module_fingerprint("repro.experiments.fig3_d2h")
        assert a == b and len(a) == 64

    def test_distinct_experiments_distinct_fingerprints(self):
        assert (module_fingerprint("repro.experiments.fig3_d2h")
                != module_fingerprint("repro.experiments.fig4_d2d"))

    def test_fingerprint_covers_transitive_engine_import(self, tmp_path,
                                                         monkeypatch):
        """Touching a deep dependency (sim/engine.py) must change every
        experiment's fingerprint — the invalidation the cache's
        soundness rests on.  Proven on a copied tree so the working
        tree stays pristine."""
        import shutil
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        shutil.copytree(src, tmp_path / "src")
        probe = (
            "from repro.analysis.expcache import module_fingerprint;"
            "print(module_fingerprint('repro.experiments.fig3_d2h'))"
        )
        env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
        before = subprocess.check_output(
            [sys.executable, "-c", probe], env=env).strip()
        engine = tmp_path / "src" / "repro" / "sim" / "engine.py"
        engine.write_text(engine.read_text() + "\n# touched\n")
        after = subprocess.check_output(
            [sys.executable, "-c", probe], env=env).strip()
        assert before != after


class TestAmbientModes:
    def test_modes_are_the_keyed_flags(self, monkeypatch):
        # REPRO_SANITIZE arms pytest fixtures only; no experiment reads it.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with flags.override(stats="stream"):
            assert ambient_modes() == {"stats": "stream"}

    def test_jobs_and_pinned_toggles_stay_out(self):
        """--jobs and the byte-identity-pinned feature toggles must NOT
        enter the key: entries are valid across all of them."""
        assert set(ambient_modes()) == {"stats"}


class TestCliIntegration:
    def test_second_run_is_served_from_cache(self, tmp_path, monkeypatch,
                                             capsys):
        from repro import cli
        monkeypatch.setenv("REPRO_EXPCACHE", str(tmp_path / "cells"))
        assert cli.main(["table3"]) == 0
        first = capsys.readouterr()
        assert "served from expcache" not in first.err
        assert cli.main(["table3"]) == 0
        second = capsys.readouterr()
        assert "[table3 served from expcache]" in second.err
        assert second.out == first.out

    def test_no_expcache_flag_bypasses(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        monkeypatch.setenv("REPRO_EXPCACHE", str(tmp_path / "cells"))
        assert cli.main(["table3"]) == 0
        capsys.readouterr()
        assert cli.main(["table3", "--no-expcache"]) == 0
        assert "served from expcache" not in capsys.readouterr().err

    def test_speed_is_never_cached(self):
        from repro.cli import CACHEABLE
        assert "speed" not in CACHEABLE and "report" not in CACHEABLE
