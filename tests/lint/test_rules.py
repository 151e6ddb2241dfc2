"""Negative tests: every reprolint rule fires on its target hazard and
stays quiet on the idiomatic alternative."""

from __future__ import annotations

import textwrap

from repro.lint.core import lint_paths


def lint_source(tmp_path, source, name="mod.py", select=None):
    """Write ``source`` under ``tmp_path`` and lint it; return rule ids."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    report = lint_paths([str(path)], select=select)
    assert not report.parse_errors, report.parse_errors
    return [finding.rule for finding in report.findings]


# -- DET101: wall-clock reads ------------------------------------------------


def test_det101_flags_wall_clock(tmp_path):
    rules = lint_source(tmp_path, """
        import time

        def stamp():
            return time.time()
    """)
    assert rules == ["DET101"]


def test_det101_allows_the_rng_module(tmp_path):
    rules = lint_source(tmp_path, """
        import time

        def seed_from_clock():
            return int(time.time_ns())
    """, name="sim/rng.py")
    assert rules == []


def test_det101_flags_datetime_now(tmp_path):
    rules = lint_source(tmp_path, """
        import datetime

        def stamp():
            return datetime.datetime.now()
    """)
    assert rules == ["DET101"]


# -- DET102: unseeded randomness ---------------------------------------------


def test_det102_flags_stdlib_random_import(tmp_path):
    assert lint_source(tmp_path, "import random\n") == ["DET102"]
    assert lint_source(tmp_path, "from random import choice\n") == ["DET102"]


def test_det102_flags_unseeded_default_rng(tmp_path):
    rules = lint_source(tmp_path, """
        import numpy as np

        def draw():
            return np.random.default_rng().random()
    """)
    assert rules == ["DET102"]


def test_det102_allows_seeded_default_rng(tmp_path):
    rules = lint_source(tmp_path, """
        import numpy as np

        def draw():
            return np.random.default_rng(42).random()
    """)
    assert rules == []


def test_det102_flags_numpy_global_stream(tmp_path):
    rules = lint_source(tmp_path, """
        import numpy as np

        def shuffle(xs):
            np.random.shuffle(xs)
    """)
    assert rules == ["DET102"]


# -- DET103: set iteration order ---------------------------------------------


def test_det103_flags_set_expression_iteration(tmp_path):
    rules = lint_source(tmp_path, """
        def leak(keys):
            return [k for k in set(keys)]
    """)
    assert rules == ["DET103"]


def test_det103_flags_set_typed_name(tmp_path):
    rules = lint_source(tmp_path, """
        def leak(items):
            pending = set(items)
            for item in pending:
                print(item)
    """)
    assert rules == ["DET103"]


def test_det103_flags_set_typed_attribute(tmp_path):
    rules = lint_source(tmp_path, """
        class Tracker:
            def __init__(self):
                self.waiting: set[int] = set()

            def drain(self):
                for tag in self.waiting:
                    print(tag)
    """)
    # the annotated assignment itself registers, the loop is flagged
    assert rules == ["DET103"]


def test_det103_allows_sorted_iteration(tmp_path):
    rules = lint_source(tmp_path, """
        def stable(keys):
            pending = set(keys)
            return [k for k in sorted(pending)]
    """)
    assert rules == []


# -- SIM201: non-command yields in process generators ------------------------


def test_sim201_flags_yield_none_in_process(tmp_path):
    rules = lint_source(tmp_path, """
        def proc(sim):
            yield sim.timeout_event(5.0)
            yield None
    """)
    assert rules == ["SIM201"]


def test_sim201_flags_bare_yield(tmp_path):
    rules = lint_source(tmp_path, """
        def proc(sim):
            yield sim.timeout_event(5.0)
            yield
    """)
    assert rules == ["SIM201"]


def test_sim201_ignores_plain_data_generators(tmp_path):
    rules = lint_source(tmp_path, """
        def numbers():
            yield 1
            yield 2
    """)
    assert rules == []


# -- SIM202: event-loop re-entry ---------------------------------------------


def test_sim202_flags_run_process_inside_process(tmp_path):
    rules = lint_source(tmp_path, """
        def outer(sim, inner):
            yield sim.timeout_event(1.0)
            sim.run_process(inner())
    """)
    assert rules == ["SIM202"]


def test_sim202_flags_run_on_attribute_receiver(tmp_path):
    rules = lint_source(tmp_path, """
        def outer(self):
            yield self.sim.timeout_event(1.0)
            self.sim.run()
    """)
    assert rules == ["SIM202"]


def test_sim202_allows_run_outside_processes(tmp_path):
    rules = lint_source(tmp_path, """
        def drive(sim, gen):
            return sim.run_process(gen)
    """)
    assert rules == []


# -- SIM203: fail without reachable waiter -----------------------------------


def test_sim203_flags_fail_on_unobservable_event(tmp_path):
    rules = lint_source(tmp_path, """
        def broken(sim):
            ev = sim.event()
            ev.fail(RuntimeError("lost"))
    """)
    assert rules == ["SIM203"]


def test_sim203_allows_yielded_event(tmp_path):
    rules = lint_source(tmp_path, """
        def ok(sim):
            ev = sim.event()
            ev.fail(RuntimeError("seen"))
            yield ev
    """)
    assert rules == []


def test_sim203_allows_defused_event(tmp_path):
    rules = lint_source(tmp_path, """
        def ok(sim):
            ev = sim.event()
            ev.defuse()
            ev.fail(RuntimeError("handled out of band"))
    """)
    assert rules == []


def test_sim203_allows_event_passed_elsewhere(tmp_path):
    rules = lint_source(tmp_path, """
        def ok(sim, registry):
            ev = sim.event()
            registry.append(ev)
            ev.fail(RuntimeError("observable via registry"))
    """)
    assert rules == []


# -- SIM204: spawning a non-generator ----------------------------------------


def test_sim204_flags_uncalled_function_lambda_and_constant(tmp_path):
    rules = lint_source(tmp_path, """
        def worker():
            return 1

        def boot(sim):
            sim.spawn(worker)
            sim.spawn(lambda: 3)
            sim.spawn(7)
    """)
    assert rules == ["SIM204", "SIM204", "SIM204"]


def test_sim204_allows_instantiated_generator(tmp_path):
    rules = lint_source(tmp_path, """
        def worker(sim):
            yield sim.timeout_event(1.0)

        def boot(sim):
            sim.spawn(worker(sim))
    """)
    assert rules == []


def test_sim204_resolves_a_bare_name_in_the_scopes_the_call_sees(tmp_path):
    """A nested plain ``def train()`` in one test does not make the
    ``train`` local of another test a plain function."""
    rules = lint_source(tmp_path, """
        def test_one(sim):
            def train():
                return 1
            return train()

        def test_two(sim, build):
            train = build()
            sim.run_process(train)
    """)
    assert rules == []


def test_sim204_flags_a_plain_def_the_call_can_see(tmp_path):
    """The enclosing function's own def, and a module def seen from a
    method (which does not see its class body), are still flagged."""
    rules = lint_source(tmp_path, """
        def worker():
            return 2

        def test_one(sim):
            def train():
                return 1
            sim.run_process(train)

        class Boot:
            def worker(self):
                yield 1

            def go(self, sim):
                sim.spawn(worker)
    """)
    assert rules == ["SIM204", "SIM204"]


# -- UNIT301: float equality on computed timestamps --------------------------


def test_unit301_flags_computed_timestamp_equality(tmp_path):
    rules = lint_source(tmp_path, """
        def check(sim, start, report):
            assert report.total_ns == sim.now - start
    """)
    assert rules == ["UNIT301"]


def test_unit301_allows_literal_comparison(tmp_path):
    rules = lint_source(tmp_path, """
        def check(sim):
            assert sim.now == 9.0
    """)
    assert rules == []


def test_unit301_allows_stored_quantity_identity(tmp_path):
    rules = lint_source(tmp_path, """
        def check(costs, cfg):
            assert costs.read_ns == cfg.home_agent_ns
    """)
    assert rules == []


def test_unit301_ignores_rates(tmp_path):
    rules = lint_source(tmp_path, """
        def check(a, b):
            assert a.link.bytes_per_ns == 2 * b.link.bytes_per_ns
    """)
    assert rules == []


# -- UNIT302: raw magnitude literals -----------------------------------------


def test_unit302_flags_large_ns_literal(tmp_path):
    rules = lint_source(tmp_path, """
        def wait(bell, tag):
            return bell.await_completion(tag, timeout_ns=1e6)
    """)
    assert rules == ["UNIT302"]


def test_unit302_flags_large_bytes_literal(tmp_path):
    rules = lint_source(tmp_path, """
        def build(factory):
            return factory(size_bytes=131072, ways=4)
    """)
    assert rules == ["UNIT302"]


def test_unit302_allows_small_literals_and_helpers(tmp_path):
    rules = lint_source(tmp_path, """
        from repro.units import ms

        def wait(bell, tag):
            return bell.await_completion(tag, timeout_ns=ms(1.0))

        def nudge(sim):
            sim.schedule_at(delay_ns=500.0)
    """)
    assert rules == []


# -- PERF401: redundant call_soon around an Event trigger --------------------


def test_perf401_flags_deferred_succeed(tmp_path):
    rules = lint_source(tmp_path, """
        def release(sim, ev):
            sim.call_soon(ev.succeed, None)
    """)
    assert rules == ["PERF401"]


def test_perf401_flags_deferred_fail_on_nested_attribute(tmp_path):
    rules = lint_source(tmp_path, """
        def abort(self, exc):
            self.sim.call_soon(self.done.fail, exc)
    """)
    assert rules == ["PERF401"]


def test_perf401_allows_direct_trigger_and_other_callbacks(tmp_path):
    rules = lint_source(tmp_path, """
        def release(sim, ev, notify):
            ev.succeed(None)
            sim.call_soon(notify, ev)
    """)
    assert rules == []


def test_perf401_suppressible_per_line(tmp_path):
    rules = lint_source(tmp_path, """
        def hand_off(sim, ev):
            # The waiter must see the event untriggered first.
            sim.call_soon(ev.succeed, None)  # reprolint: disable=PERF401
    """)
    assert rules == []


# -- PERF402: per-line FIFO charge in a streaming loop -----------------------


def test_perf402_flags_using_loop(tmp_path):
    rules = lint_source(tmp_path, """
        from repro.units import CACHELINE

        def stream(res, nbytes, cost):
            for __ in range(nbytes // CACHELINE):
                yield from res.using(cost)
    """)
    assert rules == ["PERF402"]


def test_perf402_flags_send_loop(tmp_path):
    rules = lint_source(tmp_path, """
        def stream(link, direction, count):
            for __ in range(count):
                yield from link.send(direction, 64)
    """)
    assert rules == ["PERF402"]


def test_perf402_hint_names_a_fastpath_train(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent("""
        def stream(res, cost, count):
            for __ in range(count):
                yield from res.using(cost)
    """))
    [finding] = lint_paths([str(path)], select=["PERF402"]).findings
    assert "use a `repro.core.fastpath` train" in finding.message


def test_perf402_reports_nested_loop_site_once(tmp_path):
    rules = lint_source(tmp_path, """
        def sweep(res, reps, lines, cost):
            for __ in range(reps):
                for __ in range(lines):
                    yield from res.using(cost)
    """)
    assert rules == ["PERF402"]


def test_perf402_allows_bulk_apis_and_single_charges(tmp_path):
    rules = lint_source(tmp_path, """
        def bulk(p, lsu, op, bursts):
            for addrs in bursts:
                yield from fastpath.try_lsu_train(p, lsu, op, addrs)

        def once(res, cost):
            yield from res.using(cost)
    """)
    assert rules == []


def test_perf402_suppressible_on_the_loop_line(tmp_path):
    rules = lint_source(tmp_path, """
        def degraded(link, direction, count):
            for __ in range(count):  # reprolint: disable=PERF402
                yield from link.send(direction, 64)
    """)
    assert rules == []


# -- PERF403: unbounded clock-sample accumulation ----------------------------


def test_perf403_flags_clock_sample_append_in_loop(tmp_path):
    rules = lint_source(tmp_path, """
        def drive(sim, ops):
            samples = []
            for op in ops:
                t0 = sim.now
                yield op
                samples.append(sim.now - t0)
            return samples
    """, name="repro/experiments/exp.py")
    assert rules == ["PERF403"]


def test_perf403_flags_while_loop_and_attribute_lists(tmp_path):
    rules = lint_source(tmp_path, """
        class Client:
            def run(self, sim, until):
                while sim.now < until:
                    self.latencies.append(sim.now)
    """, name="repro/apps/client.py")
    assert rules == ["PERF403"]


def test_perf403_only_applies_to_experiment_and_app_code(tmp_path):
    rules = lint_source(tmp_path, """
        def trace(sim, ops):
            log = []
            for op in ops:
                log.append(sim.now)
            return log
    """, name="repro/sim/trace_helper.py")
    assert rules == []


def test_perf403_allows_recorders_and_non_clock_appends(tmp_path):
    rules = lint_source(tmp_path, """
        def drive(sim, stats, ops):
            handles = []
            for op in ops:
                t0 = sim.now
                yield op
                stats.record(sim.now - t0)
                handles.append(op)
            return handles
    """, name="repro/experiments/exp.py")
    assert rules == []


def test_perf403_suppressible_with_rationale(tmp_path):
    rules = lint_source(tmp_path, """
        def drive(sim, ops):
            samples = []
            for op in ops:
                # Bounded by len(ops); vector is the result payload.
                samples.append(sim.now)  # reprolint: disable=PERF403
            return samples
    """, name="repro/experiments/exp.py")
    assert rules == []


# -- suppressions ------------------------------------------------------------


def test_line_suppression_by_rule_id(tmp_path):
    rules = lint_source(tmp_path, """
        import time

        def stamp():
            return time.time()  # reprolint: disable=DET101
    """)
    assert rules == []


def test_line_suppression_of_all_rules(tmp_path):
    rules = lint_source(tmp_path, """
        import time

        def stamp():
            return time.time()  # reprolint: disable
    """)
    assert rules == []


def test_file_suppression(tmp_path):
    rules = lint_source(tmp_path, """
        # reprolint: disable-file=DET101
        import time

        def stamp():
            return time.time()

        def stamp_again():
            return time.perf_counter()
    """)
    assert rules == []


def test_suppression_of_one_rule_keeps_others(tmp_path):
    rules = lint_source(tmp_path, """
        import time
        import random

        def stamp():
            return time.time()  # reprolint: disable=DET102
    """)
    # the DET102 import finding stays (wrong line), and the DET101
    # finding stays (suppression names a different rule)
    assert rules == ["DET102", "DET101"] or rules == ["DET101", "DET102"]


def test_select_and_ignore_filter_rules(tmp_path):
    path = tmp_path / "mixed.py"
    path.write_text(textwrap.dedent("""
        import time
        import random
    """))
    report = lint_paths([str(path)], select={"DET102"})
    assert [f.rule for f in report.findings] == ["DET102"]
    report = lint_paths([str(path)], ignore={"DET102"})
    assert [f.rule for f in report.findings] == ["DET101"] or not any(
        f.rule == "DET102" for f in report.findings)


# -- RAS501: offload call site bypasses the resilience wrapper ---------------


def test_ras501_flags_raw_engine_call_in_apps_tree(tmp_path):
    rules = lint_source(tmp_path, """
        def hot_loop(engine, page):
            yield from engine.compress_page("cxl", data=page)
    """, name="repro/apps/kvs.py")
    assert rules == ["RAS501"]


def test_ras501_flags_every_data_plane_op_in_experiments_tree(tmp_path):
    rules = lint_source(tmp_path, """
        def sweep(engine, a, b):
            yield from engine.decompress_page("cxl", data=a)
            yield from engine.hash_page("cxl", data=a)
            yield from engine.compare_pages("cxl", a=a, b=b)
    """, name="repro/experiments/raw.py")
    assert rules == ["RAS501", "RAS501", "RAS501"]


def test_ras501_ignores_code_outside_the_policy_boundary(tmp_path):
    rules = lint_source(tmp_path, """
        def feature_path(engine, page):
            yield from engine.compress_page("cxl", data=page)
    """, name="repro/kernel/zswap_helper.py")
    assert rules == []


def test_ras501_suppressible_for_raw_transport_measurements(tmp_path):
    rules = lint_source(tmp_path, """
        def measure(engine, page):
            # Raw-transport measurement: characterizing the device path.
            yield from engine.compress_page(  # reprolint: disable=RAS501
                "cxl", data=page)
    """, name="repro/experiments/micro.py")
    assert rules == []


# -- PERF404: sweep point rebuilding Platforms per point ---------------------


def test_perf404_flags_double_platform_sweep_point(tmp_path):
    rules = lint_source(tmp_path, """
        from repro.core.platform import Platform
        from repro.sim.parallel import SweepPoint, SweepSpec, run_sweep

        def run_point(value, seed):
            platform = Platform(seed=seed)
            calib = Platform(seed=seed + 1)
            return (value, platform, calib)

        def run(values):
            spec = SweepSpec("demo", tuple(
                SweepPoint(v, run_point, (v, 7)) for v in values))
            return run_sweep(spec)
    """, select=["PERF404"])
    assert rules == ["PERF404"]


def test_perf404_flags_sweepspec_build_tuples(tmp_path):
    rules = lint_source(tmp_path, """
        from repro.core.platform import Platform
        from repro.sim.parallel import SweepSpec, run_sweep

        def run_cell(key, seed):
            own = Platform(seed=seed)
            calibration = Platform(seed=seed + 1)
            return (key, own, calibration)

        def run(keys):
            spec = SweepSpec.build("demo", [
                (k, run_cell, (k, 7), {}) for k in keys])
            return run_sweep(spec)
    """, select=["PERF404"])
    assert rules == ["PERF404"]


def test_perf404_allows_single_platform_point(tmp_path):
    rules = lint_source(tmp_path, """
        from repro.core.platform import Platform
        from repro.sim.parallel import SweepPoint, SweepSpec, run_sweep

        def run_point(value, seed):
            return (value, Platform(seed=seed))

        def run(values):
            spec = SweepSpec("demo", tuple(
                SweepPoint(v, run_point, (v, 7)) for v in values))
            return run_sweep(spec)
    """, select=["PERF404"])
    assert rules == []


def test_perf404_allows_forkspec_warmups(tmp_path):
    """A ForkSpec warm-up legitimately builds its own platform plus a
    calibration throwaway — it runs once and gets checkpointed."""
    rules = lint_source(tmp_path, """
        from repro.core.platform import Platform
        from repro.sim.parallel import ForkSpec, run_forked_sweep

        def warmup(seed):
            platform = Platform(seed=seed)
            calib = Platform(seed=seed + 1)
            return (platform, calib)

        def point(root, value):
            return (root, value)

        def run(values):
            spec = ForkSpec.build("demo", warmup,
                                  [(v, point, (v,), {}) for v in values],
                                  warmup_args=(7,))
            return run_forked_sweep(spec)
    """, select=["PERF404"])
    assert rules == []


def test_perf404_allows_non_sweep_double_platform(tmp_path):
    """Two Platforms outside any sweep-point context stay quiet — e.g.
    a one-shot comparison harness."""
    rules = lint_source(tmp_path, """
        from repro.core.platform import Platform

        def compare(seed):
            return Platform(seed=seed), Platform(seed=seed + 1)
    """, select=["PERF404"])
    assert rules == []


# -- PERF405: per-request fabric wire in a serving loop ----------------------


def test_perf405_flags_singleton_wire_per_iteration(tmp_path):
    rules = lint_source(tmp_path, """
        def serve(port, requests, dst, send_ns):
            for user, issue in requests:
                port.send_bulk(dst, "req", [(user, issue)], send_ns)
    """, select=["PERF405"])
    assert rules == ["PERF405"]


def test_perf405_flags_singleton_keyword_items(tmp_path):
    rules = lint_source(tmp_path, """
        def serve(port, requests, dst, send_ns):
            for item in requests:
                port.send_bulk(dst, "req", items=(item,), send_ns=send_ns)
    """, select=["PERF405"])
    assert rules == ["PERF405"]


def test_perf405_allows_per_destination_batches(tmp_path):
    """One wire per destination group is the batched shape the rule
    steers toward — a loop over destinations stays quiet."""
    rules = lint_source(tmp_path, """
        def flush(port, per_dst, send_ns):
            for dst in sorted(per_dst):
                port.send_bulk(dst, "req", tuple(per_dst[dst]), send_ns)
    """, select=["PERF405"])
    assert rules == []


def test_perf405_allows_singleton_outside_loops(tmp_path):
    rules = lint_source(tmp_path, """
        def nack_one(port, wire, send_ns):
            port.send_bulk(wire.src, "nack", [wire.payload], send_ns)
    """, select=["PERF405"])
    assert rules == []


def test_perf405_suppressible(tmp_path):
    rules = lint_source(tmp_path, """
        def probe(port, requests, dst, send_ns):
            for item in requests:
                # Ordering probe: one record per wire is the measurement.
                port.send_bulk(  # reprolint: disable=PERF405
                    dst, "probe", [item], send_ns)
    """, select=["PERF405"])
    assert rules == []


# -- PERF406: epoch loop polling an empty fabric -----------------------------


def test_perf406_flags_blind_epoch_loop(tmp_path):
    rules = lint_source(tmp_path, """
        def run(fabric, pool, sids, n_epochs, epoch_ns):
            for epoch in range(n_epochs):
                t0 = epoch * epoch_ns
                delivered = fabric.deliveries(t0, t0 + epoch_ns)
                reports = pool.step({s: delivered.get(s, ()) for s in sids})
                for sid in sids:
                    fabric.push(reports[sid].outbox)
    """, select=["PERF406"])
    assert rules == ["PERF406"]


def test_perf406_allows_quiescence_aware_loop(tmp_path):
    """Consulting any quiescence signal — here the shards' idle
    horizons and the fabric's pending count — is the fast-forward
    shape the rule steers toward."""
    rules = lint_source(tmp_path, """
        def run(fabric, pool, sids, n_epochs, epoch_ns):
            epoch = 0
            while epoch < n_epochs:
                t0 = epoch * epoch_ns
                delivered = fabric.deliveries(t0, t0 + epoch_ns)
                reports = pool.step({s: delivered.get(s, ()) for s in sids})
                epoch += 1
                idle_min = min(r.idle_ns for r in reports.values())
                if fabric.in_flight == 0 and idle_min > t0 + epoch_ns:
                    epoch = min(int(idle_min // epoch_ns), n_epochs)
    """, select=["PERF406"])
    assert rules == []


def test_perf406_allows_loops_without_both_halves(tmp_path):
    """Stepping without delivering (or vice versa) is not an epoch
    barrier; the rule needs both to fire."""
    rules = lint_source(tmp_path, """
        def drain(fabric, t1):
            out = []
            for t0 in range(0, int(t1), 500):
                out.append(fabric.deliveries(float(t0), float(t0) + 500.0))
            return out

        def advance(pool, payloads):
            for payload in payloads:
                pool.step(payload)
    """, select=["PERF406"])
    assert rules == []


def test_perf406_suppressible(tmp_path):
    rules = lint_source(tmp_path, """
        def lockstep(fabric, pool, sids, n_epochs, epoch_ns):
            # Trace comparator: every epoch must step to diff traces.
            for epoch in range(n_epochs):  # reprolint: disable=PERF406
                t0 = epoch * epoch_ns
                delivered = fabric.deliveries(t0, t0 + epoch_ns)
                pool.step({s: delivered.get(s, ()) for s in sids})
    """, select=["PERF406"])
    assert rules == []


# -- PERF407: capacity-sized table of empty containers ----------------------


def test_perf407_flags_dense_set_table(tmp_path):
    rules = lint_source(tmp_path, """
        from collections import OrderedDict, deque

        class Cache:
            def __init__(self, num_sets):
                self.sets = [OrderedDict() for _ in range(num_sets)]
                self.queues: list = [deque() for _ in range(num_sets)]
                self.maps = [{} for _ in range(num_sets)]
                self.bins = [[] for i in range(2 * num_sets)]
    """, select=["PERF407"])
    assert rules == ["PERF407"] * 4


def test_perf407_allows_sparse_and_non_attribute_tables(tmp_path):
    """Occupancy-keyed dicts, per-call locals, filled slots and tables
    built outside ``__init__`` are not per-instance capacity costs."""
    rules = lint_source(tmp_path, """
        from collections import OrderedDict

        class Cache:
            def __init__(self, num_sets, seeds):
                self.sets = {}
                self.counts = [0 for _ in range(num_sets)]
                self.rngs = [list(s) for s in seeds]
                self.primed = [OrderedDict(a=1) for _ in range(num_sets)]
                buckets = [[] for _ in range(num_sets)]
                self.first = buckets[0]

            def reset(self, num_sets):
                self.sets = [OrderedDict() for _ in range(num_sets)]

        def shard(items, n):
            out = [[] for _ in range(n)]
            for i, item in enumerate(items):
                out[i % n].append(item)
            return out
    """, select=["PERF407"])
    assert rules == []


def test_perf407_suppressible(tmp_path):
    rules = lint_source(tmp_path, """
        class Ring:
            def __init__(self, slots):
                # Every slot is written on the first revolution.
                self.slots = [  # reprolint: disable=PERF407
                    [] for _ in range(slots)]
    """, select=["PERF407"])
    assert rules == []



# -- PERF408: latency recorder fed one sample per loop iteration ------------


def test_perf408_flags_per_sample_record(tmp_path):
    rules = lint_source(tmp_path, """
        def fill(stream, samples, clients):
            for s in samples:
                stream.record(s)
            for c in clients:
                if c.ok:
                    c.stats.record(c)
    """, select=["PERF408"])
    assert rules == ["PERF408"] * 2


def test_perf408_allows_keyed_derived_and_batched_records(tmp_path):
    """Two-argument records, records of a value derived from the loop
    variable, tuple targets and ``extend`` are not the flagged shape."""
    rules = lint_source(tmp_path, """
        def fill(slo, stream, samples, pairs, sim):
            for latency in samples:
                slo.record("tenant-a", latency)
                stream.record(latency * 2.0)
                stream.record(value=latency)
            for tenant, latency in pairs:
                stream.record(latency)
            for s in samples:
                pass
            else:
                stream.record(s)
            stream.extend(samples)
            stream.record(sim.now)
    """, select=["PERF408"])
    assert rules == []


def test_perf408_suppressible(tmp_path):
    rules = lint_source(tmp_path, """
        def reference(stream, samples):
            # One call per sample is the reference being tested.
            for s in samples:  # reprolint: disable=PERF408
                stream.record(s)
    """, select=["PERF408"])
    assert rules == []

def test_perf404_suppressible(tmp_path):
    rules = lint_source(tmp_path, """
        from repro.core.platform import Platform
        from repro.sim.parallel import SweepPoint, SweepSpec, run_sweep

        # Per-point fault arming: the warm-up genuinely differs per cell.
        def run_point(value, seed):  # reprolint: disable=PERF404
            platform = Platform(seed=seed)
            calib = Platform(seed=seed + 1)
            return (value, platform, calib)

        def run(values):
            spec = SweepSpec("demo", tuple(
                SweepPoint(v, run_point, (v, 7)) for v in values))
            return run_sweep(spec)
    """, select=["PERF404"])
    assert rules == []
