"""Tests for the speed benchmarks and the perf-regression check."""

import json

import pytest

from repro.analysis import speed


@pytest.fixture(scope="module")
def payload():
    # rounds=1 and tiny shapes: this tests plumbing, not performance.
    engine = dict(speed.ENGINE_BENCHES)
    experiments = dict(speed.EXPERIMENT_BENCHES)
    try:
        speed.ENGINE_BENCHES.clear()
        speed.ENGINE_BENCHES["timeouts"] = \
            lambda: speed.bench_timeouts(n_procs=5, steps=20)
        speed.EXPERIMENT_BENCHES.clear()
        speed.EXPERIMENT_BENCHES["table3"] = experiments["table3"]
        yield_payload = speed.measure(rounds=1)
    finally:
        speed.ENGINE_BENCHES.clear()
        speed.ENGINE_BENCHES.update(engine)
        speed.EXPERIMENT_BENCHES.clear()
        speed.EXPERIMENT_BENCHES.update(experiments)
    return yield_payload


def test_measure_schema(payload):
    assert payload["schema"] == speed.SCHEMA
    assert payload["engine"]["timeouts"]["events_per_sec"] > 0
    assert payload["experiments"]["table3"]["wall_s"] > 0
    assert payload["peak_rss_kb"] > 0


def test_render_mentions_every_bench(payload):
    text = speed.render(payload)
    assert "timeouts" in text and "table3" in text and "RSS" in text


def test_write_json_round_trips(payload, tmp_path):
    path = tmp_path / "BENCH_speed.json"
    speed.write_json(payload, str(path))
    assert json.loads(path.read_text()) == payload


def test_timeouts_far_bench_drives_the_far_heap():
    """Every timeout of the bench is filed under its deadline and taken
    off it once (``fired``), and the retired ``cascades`` counter stays
    0."""
    from repro.sim.timers import WHEEL_STATS
    WHEEL_STATS.reset()
    assert speed.bench_timeouts_far(n_procs=4, steps=10) > 0
    snap = WHEEL_STATS.snapshot()
    assert snap["fired"] == 40
    assert snap["cascades"] == 0


def _payload(ev=1000.0, wall=1.0):
    return {"engine": {"b": {"events_per_sec": ev}},
            "experiments": {"e": {"wall_s": wall}}}


class TestCompare:
    def test_identical_passes(self):
        assert speed.compare(_payload(), _payload()) == []

    def test_mild_noise_passes(self):
        assert speed.compare(_payload(ev=600.0, wall=1.8), _payload()) == []

    def test_throughput_regression_fails(self):
        failures = speed.compare(_payload(ev=400.0), _payload())
        assert len(failures) == 1 and "engine/b" in failures[0]

    def test_wall_time_regression_fails(self):
        failures = speed.compare(_payload(wall=2.5), _payload())
        assert len(failures) == 1 and "experiments/e" in failures[0]

    def test_factor_knob(self):
        assert speed.compare(_payload(ev=400.0), _payload(), factor=3.0) == []
        assert speed.compare(_payload(ev=400.0), _payload(), factor=2.0)

    def test_new_or_removed_benches_skipped(self):
        current = _payload()
        baseline = {"engine": {"other": {"events_per_sec": 1e9}},
                    "experiments": {}}
        assert speed.compare(current, baseline) == []


def _committed_baseline():
    from pathlib import Path
    path = (Path(__file__).parent.parent / "benchmarks" / "perf"
            / "baseline.json")
    return json.loads(path.read_text())


def test_committed_baseline_parses():
    baseline = _committed_baseline()
    assert baseline["schema"] == speed.SCHEMA
    for cell in baseline["engine"].values():
        assert cell["events_per_sec"] > 0


def test_committed_baseline_matches_the_harness():
    """Every committed cell is one the harness still measures, and every
    committed off/on cell is gated by a floor or a ceiling."""
    baseline = _committed_baseline()
    assert set(baseline["engine"]) == set(speed.ENGINE_BENCHES)
    assert set(baseline["experiments"]) == set(speed.EXPERIMENT_BENCHES)
    assert "rack_sparse" in baseline["experiments"]
    gated = set(speed.SPEEDUP_FLOORS) | set(speed.OVERHEAD_CEILINGS)
    assert set(baseline["speedups"]) == gated


class TestSpeedupFloors:
    def test_checkpoint_and_expcache_cells_are_gated(self):
        assert speed.SPEEDUP_FLOORS["checkpoint_fork"] == 4.0
        assert speed.SPEEDUP_FLOORS["expcache_warm"] == 5.0

    def test_speedup_below_floor_fails(self):
        current = dict(_payload(), speedups={
            "checkpoint_fork": {"feature": "checkpoint-fork",
                                "off_wall_s": 1.0, "on_wall_s": 0.8,
                                "speedup": 1.25}})
        failures = speed.compare(current, _payload())
        assert len(failures) == 1
        assert "checkpoint_fork" in failures[0] and "4x" in failures[0]

    def test_speedup_above_floor_passes(self):
        current = dict(_payload(), speedups={
            "expcache_warm": {"feature": "expcache",
                              "off_wall_s": 1.0, "on_wall_s": 0.01,
                              "speedup": 100.0}})
        assert speed.compare(current, _payload()) == []

    def test_render_covers_new_cells(self):
        payload = dict(
            _payload(), peak_rss_kb=1,
            speedups={
                "checkpoint_fork": {
                    "feature": "checkpoint-fork", "off_wall_s": 2.0,
                    "on_wall_s": 0.5, "speedup": 4.0,
                    "stats": {"snapshots": 1, "restores": 8,
                              "cold_warmups": 0, "snapshot_bytes": 1000,
                              "largest_snapshot_bytes": 1000}},
                "expcache_warm": {
                    "feature": "expcache", "off_wall_s": 1.0,
                    "on_wall_s": 0.001, "speedup": 1000.0,
                    "stats": {"hits": 3, "misses": 0, "stores": 0,
                              "fingerprints": 0}},
            })
        text = speed.render(payload)
        assert "restores" in text and "hits" in text


def _rack_cell(speedup, cpus, jobs):
    return {"feature": "shardpool", "off_wall_s": 3.0,
            "on_wall_s": 3.0 / speedup, "speedup": speedup, "cpus": cpus,
            "stats": {"hosts": 16, "served": 1, "jobs": jobs,
                      "routed_wires": 1, "epochs": 1}}


class TestRackParallelFloor:
    def test_floor_keeps_per_worker_efficiency(self):
        assert speed.rack_parallel_floor(4, 8) == 2.0
        assert speed.rack_parallel_floor(3, 3) == 1.5
        assert speed.rack_parallel_floor(2, 2) == 1.0
        assert speed.rack_parallel_floor(1, 1) is None
        assert speed.rack_parallel_floor(4, 1) is None

    @pytest.mark.parametrize("speedup,cpus,jobs,fails", [
        (1.8, 8, 4, True),      # full floor on a big host
        (2.1, 4, 4, False),
        (1.2, 2, 2, False),     # 2 cpus: the derived 1.0x floor
        (0.9, 2, 2, True),
        (0.9, 1, 1, False),     # one cpu: unmeasured
        (0.98, 1, 4, False),    # a jobs=4 cell from a 1-cpu host
    ])
    def test_compare_applies_the_floor_for_the_jobs_run(self, speedup, cpus,
                                                        jobs, fails):
        current = dict(_payload(), speedups={
            "rack_parallel": _rack_cell(speedup, cpus, jobs)})
        failures = speed.compare(current, _payload())
        assert bool(failures) == fails

    def test_render_marks_a_one_cpu_cell_unmeasured(self):
        payload = dict(_payload(), peak_rss_kb=1, speedups={
            "rack_parallel": _rack_cell(1.0, 1, 1)})
        assert "unmeasured" in speed.render(payload)
