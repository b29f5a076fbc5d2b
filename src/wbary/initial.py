"""Feasible starting vertices for the restricted master problem.

Both constructions end in one minimum-remaining-mass sweep: a pointer walks
each of n nonnegative vectors, and each step places the smallest entry at the
pointers on their combination. The greedy start sweeps the measures' masses,
which yields a vertex of the full transport polytope with a small support.
The 2-approximation first solves a relocation LP whose support is restricted
to the union of the input support points (its cost is at most twice optimal)
and hands over its plans, one (S, |P_i|) array per measure; the repair then
sweeps each support point's plan rows, splitting its mass into combinations
that send their whole mass to one point per measure. Each column of the
relocation LP has 2 or n nonzeros, so it is built in compressed sparse column
form and solved without a dense constraint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import MASS_TOL, ContractError, Instance, Plan


def _sweep(rows, sizes: tuple[int, ...]) -> Plan:
    """The minimum-remaining-mass sweep of each (vectors, total) in rows, with
    one vector per measure, as one plan in first-placement order.

    Each pointer skips entries at most MASS_TOL but never passes its vector's
    last entry; each step places the smallest entry at the pointers on their
    combination. A row's sweep stops once total - MASS_TOL is placed, or when
    that smallest entry is at most MASS_TOL (sub-tolerance drift from LP
    rounding). A combination placed twice holds the sum of both masses.
    """
    w: dict[int, float] = {}
    for vectors, total in rows:
        remaining = [np.array(v, dtype=float) for v in vectors]
        pointers = [0] * len(remaining)
        placed = 0.0
        while placed < total - MASS_TOL:
            for i, r in enumerate(remaining):
                while r[pointers[i]] <= MASS_TOL and pointers[i] + 1 < len(r):
                    pointers[i] += 1
            mass = min(r[p] for r, p in zip(remaining, pointers))
            if mass <= MASS_TOL:
                break
            h = int(np.ravel_multi_index(pointers, sizes))
            w[h] = w.get(h, 0.0) + mass
            placed += mass
            for r, p in zip(remaining, pointers):
                r[p] -= mass
    return Plan(np.array(list(w), dtype=np.int64), np.array(list(w.values())))


def greedy_vertex(inst: Instance) -> Plan:
    """Feasible vertex built by the minimum-remaining-mass sweep.

    The support size L always satisfies max_i |P_i| <= L <= sum_i |P_i| - n + 1
    and the chosen columns are linearly independent.
    """
    return _sweep([([m.masses for m in inst.measures], 1.0)], inst.sizes)


@dataclass
class ApproxBarycenter:
    """A feasible measure supported on the original input points.

    ``plans[i][s, j]`` is the mass support point s sends to point j of
    measure i; each plan's rows sum to ``mass`` and its columns to that
    measure's masses. two_approx also keeps the relocation LP's duals of the
    marginal rows, one per point of each measure in measure order: a dual
    point to price at before the first master solve.
    """

    support: np.ndarray  # (S, dim)
    mass: np.ndarray  # (S,)
    plans: list[np.ndarray]  # one (S, size_i) array per measure
    duals: np.ndarray | None = None  # (sum of sizes,)

    def validate(self, inst: Instance):
        tol = 1e-9
        if abs(self.mass.sum() - 1.0) > tol:
            raise ContractError("approximate barycenter mass does not sum to 1")
        if [p.shape for p in self.plans] != [(len(self.mass), s) for s in inst.sizes]:
            raise ContractError("plans do not match the support and the measures")
        for i, (plan, m) in enumerate(zip(self.plans, inst.measures)):
            out = plan.sum(axis=1)
            bad = np.flatnonzero(np.abs(out - self.mass) > tol)
            if bad.size:
                s = bad[0]
                raise ContractError(
                    f"support point {s} sends {out[s]} into measure {i}, "
                    f"holds {self.mass[s]}"
                )
            if np.abs(plan.sum(axis=0) - m.masses).max() > tol:
                raise ContractError(f"measure {i} marginals violated")


def _candidate_points(inst: Instance) -> np.ndarray:
    """Union of all input support points, first occurrence kept."""
    seen = {}
    for m in inst.measures:
        for p in m.points:
            key = p.tobytes()
            if key not in seen:
                seen[key] = p
    return np.array(list(seen.values()))


def relocation_bytes(sizes) -> int:
    """Bytes two_approx allocates for the relocation LP of measures with these
    sizes, measure 0 first, over at most S = sum(sizes) candidate points.

    The LP has (n - 1) S + S rows and S sparse columns per point of each
    measure, with n nonzeros for measure 0 and 2 for the others. Counted: the
    simplex basis over those rows, indptr with the row, value and column of
    each nonzero, and the cost vector and solution over S * S variables.
    """
    n, S = len(sizes), sum(sizes)
    nnz = S * (n * sizes[0] + 2 * (S - sizes[0]))
    return simplex.kernel_bytes(n * S) + 8 * (S * S + 1) + 24 * nnz + 16 * S * S


def two_approx(inst: Instance) -> ApproxBarycenter:
    """Best measure supported on the union of input points, with transport.

    The z variable of each candidate point is eliminated by identifying it
    with that point's outflow into the first measure.
    """
    cand = _candidate_points(inst)
    S = len(cand)
    n = inst.n
    sizes = inst.sizes

    # Variables y[i][s][j], measure-major, then candidate, then point.
    cost = []
    for lam, m in zip(inst.lambdas, inst.measures):
        d = cand[:, None, :] - m.points[None, :, :]
        cost.append(lam * np.einsum("sjk,sjk->sj", d, d).ravel())
    cost = np.concatenate(cost)

    # Rows: the coupling row (i - 1) S + s of candidate s for each measure
    # i >= 1, then one marginal row per point of each measure. A measure-0
    # column has -1 in every coupling row of its candidate, any other column
    # +1 in its own; every column has +1 in its marginal row.
    nrows = (n - 1) * S + sum(sizes)
    marginal = (n - 1) * S + np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rows, vals, nnz = [], [], []
    for i in range(n):
        s = np.repeat(np.arange(S), sizes[i])
        j = np.tile(np.arange(sizes[i]), S)
        if i == 0:
            coupling = [(t - 1) * S + s for t in range(1, n)]
            signs = [-1.0] * (n - 1) + [1.0]
        else:
            coupling = [(i - 1) * S + s]
            signs = [1.0, 1.0]
        rows.append(np.column_stack(coupling + [marginal[i] + j]).ravel())
        vals.append(np.tile(signs, S * sizes[i]))
        nnz.append(np.full(S * sizes[i], len(signs)))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(nnz))])
    cols = simplex.SparseColumns(
        indptr, np.concatenate(rows), np.concatenate(vals), nrows
    )
    rhs = np.concatenate([np.zeros((n - 1) * S)] + [m.masses for m in inst.measures])

    sol = simplex.solve_columns(simplex.Kernel(cols, rhs), cost)

    blocks = np.split(sol.x, np.cumsum([S * size for size in sizes])[:-1])
    plans = [x.reshape(S, size) for x, size in zip(blocks, sizes)]
    mass = plans[0].sum(axis=1)
    keep = np.flatnonzero(mass > MASS_TOL)
    return ApproxBarycenter(
        cand[keep], mass[keep], [p[keep] for p in plans], sol.duals[(n - 1) * S :]
    )


def repair_to_vertex(apx: ApproxBarycenter, inst: Instance) -> Plan:
    """Split each approximate support point into whole-mass combinations.

    Sweeps every support point's plan rows, lowest point index first in each
    measure; the mass of each step lands at the weighted mean of its
    combination, which never increases the transport cost.
    """
    apx.validate(inst)
    return _sweep(zip(zip(*apx.plans), apx.mass), inst.sizes)
