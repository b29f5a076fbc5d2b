"""Solve benchmark for wbary: end-to-end metrics, or per-layer spans with --trace 1.

    python3 bench/run.py --workload wide --seed 0 --seconds 15 --trace 0

Runs from a checkout of the repository and imports the solver from its
``src`` directory. Every solve is checked against the instance data and a
cached full-LP optimum (check.py, lp_reference.py). The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A record of
the run, with the spans of a traced run, goes to bench/out/. README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

# One BLAS thread, set before numpy loads: the dense solves are small, and a
# second thread on a shared two-core machine adds spread without speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import check  # noqa: E402
import lp_reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WARMUP, WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {"solve_s": "s", "peak_mem_mb": "MB", "setup_s": "s"}

# Per-layer time metrics: the spans whose self times each one sums. Together
# they cover every traced span, so they add up to the traced solve time.
LAYER_TIMES = {
    "model.cost_vector_s": ("model.cost_vector",),
    "pricing.init_reduced_costs_s": ("pricing.init_reduced_costs",),
    "pricing.update_reduced_costs_s": (
        "pricing.update_reduced_costs",
        "pricing.recompute_reduced_costs",
    ),
    "pricing.best_costs_s": ("pricing.best_costs",),
    "pricing.solve_pricing_s": ("pricing.solve_pricing",),
    "transport.solve_transportation_s": ("transport.solve_transportation",),
    "master.solve_rm_s": ("master.solve_rm",),
    "master.add_column_s": ("master.add_column",),
    "master.recover_solution_s": ("master.recover_solution",),
    "initial.start_vertex_s": (
        "initial.greedy_vertex",
        "initial.two_approx",
        "initial.repair_to_vertex",
    ),
    "simplex.solve_columns_s": ("simplex.solve_columns",),
    "driver.self_s": ("driver.solve",),
}
# Per-layer counts: the tracer counter each one reads.
LAYER_COUNTS = {
    "pricing.changed_duals": ("pricing.changed_duals", "count"),
    "pricing.update_bytes": ("pricing.update_bytes", "B_computed"),
    "transport.calls": ("transport.solve_transportation.calls", "count"),
    "master.pivots": ("master.pivots", "count"),
    "master.columns": ("master.add_column.calls", "count"),
    "simplex.calls": ("simplex.solve_columns.calls", "count"),
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: unit for name, (_, unit) in LAYER_COUNTS.items()},
    "driver.iterations": "count",
    "accounting.ledger_peak_mb": "MB",
}


def import_seconds() -> float:
    """Time of `import wbary` (numpy included) inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import wbary; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def import_solver():
    """Import wbary from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "wbary" / "__init__.py").is_file():
        sys.exit(f"bench: no solver sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import wbary

    if Path(wbary.__file__).resolve().parent != (src / "wbary").resolve():
        sys.exit(f"bench: imported wbary from {wbary.__file__}, not from {src}")
    return wbary


class Bench:
    """One workload's instances, their references, and the tally of solves."""

    def __init__(self, wbary, workload: str):
        self.wbary = wbary
        self.cases = WORKLOADS[workload]
        self.configs = [
            wbary.SolveConfig(start=c.start, pair_variant=c.pair) for c in self.cases
        ]
        self.refs = lp_reference.load()
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def set_up(self):
        """Build the instances and warm the solver up with a small solve."""
        wb = self.wbary
        data = [generate(c) for c in self.cases]
        instances = [self.instance(d) for d in data]
        warm = self.instance(generate(WARMUP))
        for cfg in {(c.start, c.pair): cfg for c, cfg in zip(self.cases, self.configs)}.values():
            wb.solve(warm, cfg)
        return data, instances

    def instance(self, d):
        wb = self.wbary
        return wb.Instance(
            tuple(wb.DiscreteMeasure(p, m) for p, m in zip(d.points, d.masses)),
            d.weights,
        )

    def optimum(self, k: int, data) -> float | None:
        entry = self.refs.get(self.cases[k].key)
        if entry is None or entry["sha256"] != data.fingerprint():
            return None
        return entry["objective"]

    def solve(self, k: int, instance):
        """One attempted solve; returns (result or None, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wbary.solve(instance, self.configs[k])
        except Exception:  # a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            self.failed += 1
            print(f"bench: {self.cases[k].key} failed:", file=sys.stderr)
            traceback.print_exc()
            return None, wall
        return result, time.perf_counter() - t0

    def verify(self, k: int, data, result):
        if result is None:
            return
        tol = self.configs[k].tol
        for fault in check.check_result(data, result, tol, self.optimum(k, data)):
            self.faults.append(f"{self.cases[k].key}: {fault}")


def timed_pass(bench, data, instances, seconds, rng):
    """Whole rounds, each solving every instance once in a seeded order."""
    times = [[] for _ in instances]
    start = time.perf_counter()
    while not times[0] or time.perf_counter() - start < seconds:
        order = list(range(len(instances)))
        rng.shuffle(order)
        results = []
        for k in order:
            result, wall = bench.solve(k, instances[k])
            times[k].append(wall)
            results.append((k, result))
        for k, result in results:
            bench.verify(k, data[k], result)
    return times


def memory_pass(bench, data, instances):
    """tracemalloc peak of each solve, in MB; tracing is on for this pass only."""
    peaks, results = [], []
    tracemalloc.start()
    try:
        for k, inst in enumerate(instances):
            tracemalloc.reset_peak()
            results.append(bench.solve(k, inst)[0])
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
    finally:
        tracemalloc.stop()
    for k, result in enumerate(results):
        bench.verify(k, data[k], result)
    ledger = [r.peak_memory_bytes / 1e6 for r in results if r is not None]
    return peaks, ledger


def traced_pass(bench, data, instances, seconds, rng):
    """Whole traced rounds; per-layer metrics per round, plus closure faults."""
    tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    with tracer.installed():
        while not rounds or time.perf_counter() - start < seconds:
            order = list(range(len(instances)))
            rng.shuffle(order)
            before = Counter(tracer.counts)
            selves, solved, wall_total = Counter(), [], 0.0
            for k in order:
                root = len(tracer.spans)
                result, wall = bench.solve(k, instances[k])
                wall_total += wall
                own = tracer.self_times(root)
                selves.update(own)
                covered = sum(own.values())
                if abs(covered - wall) > 1e-3 * wall:
                    bench.faults.append(
                        f"{bench.cases[k].key}: span self times add up to {covered:.6f} s, "
                        f"traced solve took {wall:.6f} s"
                    )
                solved.append((k, result, root))
            counts = tracer.counts - before
            metrics = {
                name: sum(selves.get(s, 0.0) for s in spans)
                for name, spans in LAYER_TIMES.items()
            }
            metrics.update({name: counts[key] for name, (key, _) in LAYER_COUNTS.items()})
            ok = [r for _, r, _ in solved if r is not None]
            metrics["driver.iterations"] = sum(r.iterations for r in ok)
            metrics["accounting.ledger_peak_mb"] = max(
                (r.peak_memory_bytes / 1e6 for r in ok), default=0.0
            )
            rounds.append({"wall": wall_total, "metrics": metrics,
                           "timings": [timings_vs_spans(tracer, root, r) for _, r, root in solved]})
            for k, result, _ in solved:
                bench.verify(k, data[k], result)
    return rounds, tracer


def timings_vs_spans(tracer, root: int, result) -> dict:
    """The solver's own step timings beside the inclusive span time per name."""
    inclusive = Counter()
    for sid, parent, name, start, end in tracer.spans[root:]:
        if sid != root and parent is None:
            break
        inclusive[name] += end - start
    return {"timings": dict(result.timings) if result else None, "spans": dict(inclusive)}


def report(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    wbary = import_solver()

    # Set-up is repeated: the import, timed in a fresh interpreter, then
    # building the instances and a warm-up solve in this process.
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    bench = Bench(wbary, args.workload)
    setups = []
    for imported in imports:
        t0 = time.perf_counter()
        data, instances = bench.set_up()
        setups.append(imported + time.perf_counter() - t0)
    record = {"args": vars(args), "cases": [c.key for c in bench.cases],
              "import_s": imports, "setup_s": setups}

    if args.trace == 0:
        times = timed_pass(bench, data, instances, args.seconds, rng)
        peaks, ledger = memory_pass(bench, data, instances)
        metrics = {
            "solve_s": sum(statistics.median(t) for t in times),
            "peak_mem_mb": max(peaks),
            "setup_s": statistics.median(setups),
        }
        record.update(solve_times_s=times, tracemalloc_peaks_mb=peaks, ledger_peaks_mb=ledger)
        out = report(metrics, END_TO_END)
        rounds = len(times[0])
        print(f"{args.workload}: solve_s {metrics['solve_s']:.4f} s "
              f"(per-instance medians of {rounds} rounds, summed)")
        print(f"{args.workload}: peak_mem_mb {metrics['peak_mem_mb']:.3f} MB "
              f"(tracemalloc; ledger declares {max(ledger, default=0.0):.3f} MB)")
        print(f"{args.workload}: setup_s {metrics['setup_s']:.4f} s "
              f"(median of {SETUP_REPEATS} set-ups, import {statistics.median(imports):.4f} s)")
    else:
        untraced = timed_pass(bench, data, instances, 0.0, rng)
        rounds, tracer = traced_pass(bench, data, instances, args.seconds, rng)
        # Times vary between rounds; counts repeat, and median_low keeps them whole.
        metrics = {
            name: (statistics.median if unit == "s" else statistics.median_low)(
                [r["metrics"][name] for r in rounds]
            )
            for name, unit in PER_LAYER.items()
        }
        traced_wall = statistics.median(r["wall"] for r in rounds)
        overhead = traced_wall / sum(t[0] for t in untraced)
        record.update(rounds=rounds, tracing_overhead=overhead,
                      spans=tracer.spans, counts=dict(tracer.counts))
        out = report(metrics, PER_LAYER)
        for name, unit in PER_LAYER.items():
            print(f"{args.workload}: {name} {metrics[name]:.6g} {unit}")
        print(f"{args.workload}: traced round {traced_wall:.4f} s, "
              f"{overhead:.3f}x the untraced round ({len(rounds)} traced rounds)")

    for fault in bench.faults:
        print(f"bench: check failed: {fault}", file=sys.stderr)
    record.update(faults=bench.faults, attempted=bench.attempted, failed=bench.failed)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not bench.faults, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
