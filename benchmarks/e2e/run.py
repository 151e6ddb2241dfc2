"""End-to-end benchmark of the simulator: host time, set-up and memory.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload kvs_tail [--seed 42]
        [--seconds 20] [--trace 0|1] [--trace-dir DIR]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --write-golden --seed 42

Every run is a fresh child interpreter (``child.py``), so imports, the
work cache and the page store start cold.  ``--trace 0`` repeats the
workload for ``--seconds`` and reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` makes one untraced and one profiled run
(``rack``: two profiled) and reports the per-layer metrics.  Either way
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN_DIR = HERE / "golden"
DEFAULT_SEED = 42
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 10        # set-up-only cold starts behind setup_s
MIN_RUNS = 3
DEADLINE_S = 170.0        # the whole invocation must end within 180 s


class ChildFailed(Exception):
    pass


def _clock() -> float:
    return time.monotonic()  # reprolint: disable=DET101 host time is the measurand


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    """The parent's environment without any ``REPRO_*`` toggle, with the
    experiment cache off and hashing fixed, so only the seed varies."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(REPRO_EXPCACHE="0", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def default_jobs(workload: str) -> int:
    return min(2, nproc()) if workload == "rack" else 1


class Runner:
    """Spawns child runs of one workload/seed/size before a deadline."""

    def __init__(self, workload: str, seed: int, size: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = deadline
        self.env = child_env()

    def launch(self, mode: str, jobs: int, trace_dir: Optional[str] = None,
              label: str = "traced") -> Dict[str, Any]:
        """One child run; adds ``wall_s`` (spawn to exit) and ``setup_s``
        (spawn to first op) to the child's report."""
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--mode", mode, "--jobs", str(jobs),
               "--label", label]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        timeout = self.deadline - _clock()
        if timeout <= 0:
            raise ChildFailed("out of time before the run started")
        start = _clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The child leads its own process group, so this also stops
            # its shard workers.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{mode} run passed the deadline")
        end = _clock()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} run exited {proc.returncode}:\n"
                              + err[-2000:])
        report = json.loads(lines[-1])
        report["wall_s"] = end - start
        report["setup_s"] = report["ready"] - start
        return report


# -- correctness ------------------------------------------------------------


def load_golden(seed: int) -> Dict[str, Any]:
    path = GOLDEN_DIR / f"{seed}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def judge(runs: List[Dict[str, Any]], golden: Dict[str, str]
          ) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over every op of every run.  An op
    fails if it raised, broke its invariant, or its digest differs from
    the golden (when one is committed) or from its first run here."""
    attempted = failed = 0
    first: Dict[str, str] = {}
    reasons = []
    for run in runs:
        for op in run["ops"]:
            attempted += 1
            why = op["error"]
            digest = op["digest"]
            if why is None and golden.get(op["name"], digest) != digest:
                why = "output differs from the golden digest"
            if why is None and first.setdefault(op["name"], digest) != digest:
                why = "output differs between runs of one seed"
            if why is not None:
                failed += 1
                reasons.append(f"{op['name']}: {why.strip()}")
    return attempted, failed, reasons


# -- metrics ----------------------------------------------------------------


def summary(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


# Which statistic of an invocation's samples is reported.  Other tenants
# of a shared host only ever add time, so the fastest run is the
# steadiest estimate of a workload's own cost (``repro speed`` also
# keeps the best of its rounds); memory is not contended that way.
REPORTED = {"wall_s": "min", "setup_s": "min", "peak_rss_mb": "median"}


def e2e_metrics(runs: List[Dict[str, Any]], setups: List[float]
                ) -> Dict[str, Tuple[Dict[str, float], str]]:
    return {
        "wall_s": (summary([r["wall_s"] for r in runs]), "s"),
        "setup_s": (summary(setups), "s"),
        "peak_rss_mb": (summary([r["maxrss_kib"] / 1024 for r in runs]),
                        "MiB"),
    }


def layer_metrics(untraced: Dict[str, Any], traced: Dict[str, Any],
                  split: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics.  ``split`` is the traced run whose profile sees
    every layer (for ``rack`` the in-process jobs=1 run); ``traced`` is
    the profiled run at the workload's own job count, which gives the
    coordinator's IPC wait and the tracing overhead."""
    op_wall = sum(op["wall_s"] for op in split["ops"])
    traced_wall = sum(op["wall_s"] for op in traced["ops"])
    out: Dict[str, Tuple[float, str]] = {}
    counters = split["counters"]
    for key, value in counters.items():
        unit = "ratio" if key.endswith("_ratio") else (
            "B" if key.endswith("_bytes") else "count")
        out[key] = (value, unit)
    out["sim.host_ns_per_event"] = (
        untraced["wall_s"] * 1e9 / max(1, counters["sim.events"]), "ns")
    for layer in layers.LAYERS:
        folded = split["layers"][layer]
        out[f"{layer}.share"] = (folded["self_s"] / op_wall, "ratio")
        out[f"{layer}.calls"] = (folded["calls"], "count")
    out["ipc.wait_share"] = (
        traced["layers"]["ipc"]["self_s"] / traced_wall, "ratio")
    out["ipc.step_share"] = (traced["step_s"] / traced_wall, "ratio")
    out["trace.coverage"] = (
        sum(v["self_s"] for v in split["layers"].values()) / op_wall, "ratio")
    out["trace.overhead"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
    return out


def trace_runs(runner: Runner, trace_dir: Optional[str]
               ) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """(untraced, traced, split): see :func:`layer_metrics`."""
    jobs = default_jobs(runner.workload)
    untraced = runner.launch("run", jobs)
    traced = runner.launch("trace", jobs, trace_dir)
    split = traced
    if jobs > 1:
        split = runner.launch("trace", 1, trace_dir, label="traced-jobs1")
    return untraced, traced, split


# -- output -----------------------------------------------------------------


def header(args: argparse.Namespace, golden: Dict[str, str]) -> None:
    dropped = sorted(key for key in os.environ if key.startswith("REPRO_"))
    print(f"# e2e benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"jobs={default_jobs(args.workload)}")
    print(f"# host: python {sys.version.split()[0]}, nproc {nproc()}")
    print(f"# child env: dropped {dropped or 'no REPRO_* variables'}; "
          "set REPRO_EXPCACHE=0 PYTHONHASHSEED=0 PYTHONPATH=src")
    print(f"# golden: {len(golden)} op digests for seed {args.seed}"
          if golden else f"# golden: none for seed {args.seed}; "
          "checking invariants and run-to-run identity only")


def print_table(rows: List[Tuple[str, str, Dict[str, float]]]) -> None:
    print(f"{'metric':34s} {'unit':6s} {'min':>12s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s}")
    for name, unit, s in rows:
        print(f"{name:34s} {unit:6s} {s['min']:12.6g} {s['median']:12.6g} "
              f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}")


def result_line(names: List[str], values: Dict[str, Tuple[float, str]],
                attempted: int, failed: int, correct: bool) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in names}})


def bench_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(args: argparse.Namespace) -> int:
    spec = bench_spec()
    started = _clock()
    runner = Runner(args.workload, args.seed, "bench", started + DEADLINE_S)
    golden = load_golden(args.seed).get("bench", {}).get(args.workload, {})
    header(args, golden)
    runs: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        if args.trace:
            untraced, traced, split = trace_runs(runner, args.trace_dir)
            runs = [untraced, traced] + ([split] if split is not traced
                                         else [])
            if untraced["counters"] != traced["counters"]:
                problems.append("counters differ between the untraced and "
                                "the traced run")
            values = layer_metrics(untraced, traced, split)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            setups = [runner.launch("setup", default_jobs(args.workload))
                      ["setup_s"] for _ in range(SETUP_SAMPLES)]
            begin = _clock()
            while True:
                runs.append(runner.launch("run", default_jobs(args.workload)))
                typical = statistics.median(r["wall_s"] for r in runs)
                if len(runs) >= MIN_RUNS and \
                        _clock() + typical > min(begin + args.seconds,
                                                 runner.deadline):
                    break
            stats = e2e_metrics(runs, setups)
            print_table([(name, unit, s) for name, (s, unit) in stats.items()])
            values = {name: (s[REPORTED[name]], unit)
                      for name, (s, unit) in stats.items()}
            names = [m["name"] for m in spec["end_to_end"]]
    except ChildFailed as exc:
        print(f"# FAILED: {exc}")
        print(result_line([], {}, max(1, len(runs)), max(1, len(runs)),
                          False))
        return 1
    attempted, failed, reasons = judge(runs, golden)
    problems += reasons
    op_walls: Dict[str, List[float]] = {}
    for run in runs[:1] if args.trace else runs:
        for op in run["ops"]:
            op_walls.setdefault(op["name"], []).append(op["wall_s"])
    print_table([(f"op.{name}.wall_s", "s", summary(v))
                 for name, v in op_walls.items()])
    if args.trace:
        for name in names:
            value, unit = values[name]
            print(f"{name:34s} {unit:6s} {value:14.6g}")
    print(f"op_fail_ratio: {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    for problem in problems:
        print(f"# FAILED {problem}")
    print(result_line(names, values, attempted, failed, not problems))
    return 0


# -- goldens and self-check -------------------------------------------------


def write_golden(seed: int) -> int:
    data = load_golden(seed)
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            runner = Runner(workload, seed, size, _clock() + DEADLINE_S)
            report = runner.launch("run", default_jobs(workload))
            _, failed, reasons = judge([report], {})
            if failed:
                print("\n".join(reasons), file=sys.stderr)
                return 1
            data.setdefault(size, {})[workload] = {
                op["name"]: op["digest"] for op in report["ops"]}
            print(f"{size}/{workload}: {len(report['ops'])} ops")
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{seed}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def smoke() -> int:
    """Every workload at its smoke size: the output carries every metric
    of BENCHMARK.json with its unit, the smoke goldens match, and a
    corrupted golden digest is counted as exactly one failed op."""
    spec = bench_spec()
    started = _clock()
    golden = load_golden(DEFAULT_SEED).get("smoke", {})
    problems = []
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, DEFAULT_SEED, "smoke", started + DEADLINE_S)
        untraced, traced, split = trace_runs(runner, None)
        produced = dict(layer_metrics(untraced, traced, split))
        produced.update({name: (s[REPORTED[name]], unit)
                         for name, (s, unit) in
                         e2e_metrics([untraced], [untraced["setup_s"]])
                         .items()})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = produced.get(metric["name"])
            if got is None or got[1] != metric["unit"]:
                problems.append(f"{workload}: metric {metric['name']} "
                                f"missing or not in {metric['unit']}")
        expected = golden.get(workload)
        if not expected:
            problems.append(f"{workload}: no smoke golden for seed "
                            f"{DEFAULT_SEED}")
            continue
        _, _, reasons = judge([untraced, traced, split], expected)
        problems += [f"{workload}: {reason}" for reason in reasons]
        if untraced["counters"] != traced["counters"]:
            problems.append(f"{workload}: counters differ when traced")
        corrupted = dict(expected)
        victim = next(iter(corrupted))
        corrupted[victim] = "0" * 64
        _, failed, _ = judge([untraced], corrupted)
        if failed != 1:
            problems.append(f"{workload}: a corrupted golden counted "
                            f"{failed} failed ops, not 1")
        print(f"smoke {workload}: {len(untraced['ops'])} ops, "
              f"wall {untraced['wall_s']:.2f} s")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"smoke: {'ok' if not problems else 'FAILED'} in "
          f"{_clock() - started:.1f} s")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir",
                        help="write Chrome trace-event and folded-profile "
                             "JSON of the traced runs here")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="self-check every workload at a tiny size")
    mode.add_argument("--write-golden", action="store_true",
                      help="record the op digests of --seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
