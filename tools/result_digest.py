"""Print every solve result of a fixed instance set, exactly, one JSON line each.

    OPENBLAS_NUM_THREADS=1 python3 tools/result_digest.py > digest.jsonl

Covers the benchmark instances and their warm-up (bench/workloads.py) and one
random instance for each of n = 1..4 measures, solved by ``solve`` with each
case's settings (and with the 2-approximation start for n >= 3) and by
``solve_direct``. Objectives and masses are printed with ``repr``, so running
it on two checkouts and diffing the output shows whether a change moved any
result by as much as one bit.
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
        "iterations": r.iterations,
        "pricing_calls": r.pricing_calls,
        "points": [[list(p.assignment), repr(p.mass)] for p in r.barycenter],
    }


def main():
    cases = [(name, c) for name, cs in WORKLOADS.items() for c in cs]
    cases.append(("warmup", WARMUP))
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        sizes = tuple(int(s) for s in rng.integers(2, 6, n))
        cases.append((f"random-n{n}", Case(sizes, "random", 100 + n)))
        if n > 2:
            cases.append((f"random-n{n}", Case(sizes, "random", 100 + n, start="2app")))
    for name, case in cases:
        d = generate(case)
        inst = wbary.Instance(
            tuple(wbary.DiscreteMeasure(p, m) for p, m in zip(d.points, d.masses)),
            d.weights,
        )
        cfg = wbary.SolveConfig(start=case.start, pair_variant=case.pair)
        for how in ("solve", "solve_direct"):
            try:
                r = wbary.solve(inst, cfg) if how == "solve" else wbary.solve_direct(inst)
                out = record(r)
            except wbary.CapacityError as e:
                out = {"error": type(e).__name__}
            print(json.dumps({"case": f"{name} {case.key}", "by": how, **out}))


if __name__ == "__main__":
    main()
