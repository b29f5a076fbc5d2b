"""Optimal objectives of the benchmark instances from the full LP, via HiGHS.

The full LP has one variable per combination (one point from every measure)
and one equality row per input point. Its costs are built here from the raw
points, not by wbary.model, and it is solved by
scipy.optimize.linprog(method="highs"), so the reference shares no code with
the solver under test.

Remake the cache (about 30 s, most of it the two `wide` instances):

    python3 bench/lp_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Data, generate

CACHE = Path(__file__).resolve().parent / "lp_reference.json"


def full_lp_optimum(data: Data) -> float:
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    sizes = [len(m) for m in data.masses]
    n = len(sizes)
    digits = np.indices(sizes).reshape(n, -1)  # (n, N): point index per measure
    total = digits.shape[1]
    mean = np.zeros((total, data.points[0].shape[1]))
    for i, q in enumerate(data.points):
        mean += data.weights[i] * q[digits[i]]
    cost = np.zeros(total)
    for i, q in enumerate(data.points):
        d = q[digits[i]] - mean
        cost += data.weights[i] * np.einsum("kd,kd->k", d, d)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = (digits + offsets[:-1, None]).T.ravel()
    cols = np.repeat(np.arange(total), n)
    A = csc_matrix((np.ones(rows.size), (rows, cols)), shape=(offsets[-1], total))
    b = np.concatenate(data.masses)
    res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def load() -> dict:
    """The cached references, keyed by case key."""
    with open(CACHE) as fh:
        return json.load(fh)["instances"]


def main() -> int:
    entries = {}
    for name, cases in WORKLOADS.items():
        for case in cases:
            data = generate(case)
            t0 = time.perf_counter()
            optimum = full_lp_optimum(data)
            print(f"{name} {case.key}: {optimum!r} in {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
            entries[case.key] = {"objective": optimum, "sha256": data.fingerprint()}
    with open(CACHE, "w") as fh:
        json.dump({"solver": "scipy.optimize.linprog(method='highs')",
                   "instances": entries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
