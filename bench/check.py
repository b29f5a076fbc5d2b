"""Checks every solve against the instance data, using no code of the solver.

Everything is recomputed from the raw points, masses and weights with plain
numpy. The optimum comes from the cached full-LP reference (lp_reference.py).
"""

from __future__ import annotations

import numpy as np

from workloads import Data

MARGINAL_TOL = 1e-9
ROUNDING = 1e-12  # slack for the sums the solver and the checker order differently
LP_ROUNDING = 1e-9  # HiGHS reports its optimum to about this accuracy


def check_result(data: Data, result, tol: float, optimum: float | None) -> list[str]:
    """Faults of one solve; an empty list means the solve passed every check."""
    faults = []
    if not result.converged:
        faults.append("not converged")
    pts = result.barycenter
    if not pts:
        return faults + ["empty barycenter"]
    n = len(data.points)
    mass = np.array([p.mass for p in pts], dtype=float)
    assign = np.array([p.assignment for p in pts], dtype=np.int64)
    coords = np.array([p.coords for p in pts], dtype=float)
    if assign.shape != (len(pts), n):
        return faults + [f"assignments have shape {assign.shape}, expected ({len(pts)}, {n})"]
    for i, q in enumerate(data.points):
        if assign[:, i].min() < 0 or assign[:, i].max() >= len(q):
            return faults + [f"assignment into measure {i} out of range"]
    if mass.min() < 0.0:
        faults.append(f"negative mass {mass.min()!r}")

    for i, m in enumerate(data.masses):
        got = np.bincount(assign[:, i], weights=mass, minlength=len(m))
        worst = float(np.abs(got - m).max())
        if worst > MARGINAL_TOL:
            faults.append(f"measure {i} marginal off by {worst:.3e}")

    mean = np.zeros_like(coords)
    for i, q in enumerate(data.points):
        mean += data.weights[i] * q[assign[:, i]]
    off = float(np.abs(coords - mean).max())
    if off > ROUNDING:
        faults.append(f"a point is {off:.3e} off the weighted mean of its assignment")

    objective = 0.0
    for i, q in enumerate(data.points):
        d = q[assign[:, i]] - mean
        objective += data.weights[i] * float(mass @ np.einsum("kd,kd->k", d, d))
    if abs(objective - result.objective) > ROUNDING:
        faults.append(
            f"reported objective {result.objective!r} != recomputed {objective!r}"
        )

    if result.trace:
        last = result.trace[-1]
        if result.objective > last.rm_objective + ROUNDING:
            faults.append(
                f"objective {result.objective!r} above the last master objective "
                f"{last.rm_objective!r}"
            )
        bound = last.rm_objective + last.pricing_objective
        if bound > result.objective + ROUNDING:
            faults.append(
                f"Lagrangian bound {bound!r} above the objective {result.objective!r}"
            )
        if optimum is not None and bound > optimum + LP_ROUNDING:
            faults.append(f"Lagrangian bound {bound!r} above the LP optimum {optimum!r}")

    limit = sum(len(m) for m in data.masses) - n + 1
    if len(pts) > limit:
        faults.append(f"support of {len(pts)} points exceeds sum|P_i| - n + 1 = {limit}")

    if optimum is None:
        faults.append("no LP reference for this instance")
    else:
        gap = result.objective - optimum
        if gap < -LP_ROUNDING or gap > tol + LP_ROUNDING:
            faults.append(
                f"objective {result.objective!r} is {gap:.3e} above the LP optimum "
                f"{optimum!r}; allowed [0, tol={tol}]"
            )
    return faults
