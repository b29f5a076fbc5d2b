"""Print every solve result of a fixed instance set, exactly, one JSON line each.

    OPENBLAS_NUM_THREADS=1 python3 tools/result_digest.py > digest.jsonl

Covers the benchmark instances and their warm-up (bench/workloads.py) and one
random instance for each of n = 1..4 measures, and two with many measures in
1-D and 3-D, solved by ``solve`` with each case's settings (and with the
2-approximation start for n >= 3) and by ``solve_direct``. The ``mixed``
instances, which ``solve`` sends down the unit route, are also solved by
``driver.solve_master``, so the paper's route with the 2-approximation start
has a record on a benchmark instance. Each record holds
every field of the result but its timings: the objective, lower bound,
iteration and pricing counts, combination count, convergence flag, reported
peak memory, trace length, the last trace entry's master objective, pricing
objective and bound, and the barycenter. Floats are printed with ``repr``,
so running it on two checkouts and diffing the output shows whether a change
moved any result by as much as one bit. The tool imports the ``src`` and
``bench`` beside its own directory, so to compare with another checkout, copy
this file into that checkout's ``tools/`` and run it there too:

    cp tools/result_digest.py ../base/tools/
    python3 tools/result_digest.py > new.jsonl
    python3 ../base/tools/result_digest.py > old.jsonl
    diff old.jsonl new.jsonl
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import wbary  # noqa: E402
from workloads import WARMUP, WORKLOADS, Case, generate  # noqa: E402


def record(r) -> dict:
    return {
        "objective": repr(r.objective),
        "objective_type": type(r.objective).__name__,
        # None on a checkout from before results carried their bound
        "lower_bound": repr(getattr(r, "lower_bound", None)),
        "iterations": r.iterations,
        "pricing_calls": r.pricing_calls,
        "n_combinations": r.n_combinations,
        "converged": r.converged,
        "peak_memory_bytes": r.peak_memory_bytes,
        "trace_length": len(r.trace),
        "last_trace": [repr(v) for v in r.trace[-1][1:]] if r.trace else None,
        "points": [[list(p.assignment), repr(p.mass)] for p in r.barycenter],
    }


def main():
    cases = [(name, c, 2) for name, cs in WORKLOADS.items() for c in cs]
    cases.append(("warmup", WARMUP, 2))
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        sizes = tuple(int(s) for s in rng.integers(2, 6, n))
        cases.append((f"random-n{n}", Case(sizes, "random", 100 + n), 2))
        if n > 2:
            cases.append((f"random-n{n}", Case(sizes, "random", 100 + n, start="2app"), 2))
    # many measures, so costs and the polish reduce over long measure axes
    cases.append(("dim1-n9", Case((3, 2, 4, 3, 2, 3, 2, 3, 2), "random", 201), 1))
    cases.append(("dim3-n8", Case((3, 3, 2, 4, 2, 3, 2, 3), "random", 202), 3))
    for name, case, dim in cases:
        d = generate(case, dim)
        inst = wbary.Instance(
            tuple(wbary.DiscreteMeasure(p, m) for p, m in zip(d.points, d.masses)),
            d.weights,
        )
        cfg = wbary.SolveConfig(start=case.start, pair_variant=case.pair)
        hows = ["solve", "solve_direct"] + (["solve_master"] if name == "mixed" else [])
        for how in hows:
            try:
                if how == "solve_direct":
                    out = record(wbary.solve_direct(inst))
                else:
                    out = record(getattr(wbary.driver, how)(inst, cfg))
            except wbary.CapacityError as e:
                out = {"error": type(e).__name__}
            print(json.dumps({"case": f"{name} {case.key}", "by": how, **out}))


if __name__ == "__main__":
    main()
