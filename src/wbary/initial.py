"""Feasible starting vertices for the restricted master problem.

Two constructions are offered. The greedy sweep walks one pointer through
each measure, always assigning the minimum remaining mass, which yields a
vertex of the full transport polytope with a small support. The alternative
first solves a relocation LP whose support is restricted to the union of the
input support points (its cost is at most twice optimal) and then repairs
that solution so every support point sends its whole mass to one destination
per measure. Each column of the relocation LP has 2 or n nonzeros, so it is
built in compressed sparse column form and solved without a dense
constraint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import (
    ContractError,
    Instance,
    SparseMass,
    Strides,
    index_of,
    make_strides,
)

ZERO_TOL = 1e-12


def greedy_vertex(inst: Instance, strides: Strides | None = None) -> SparseMass:
    """Feasible vertex built by the minimum-remaining-mass sweep.

    The support size L always satisfies max_i |P_i| <= L <= sum_i |P_i| - n + 1
    and the chosen columns are linearly independent.
    """
    if strides is None:
        strides = make_strides(inst.sizes)
    n = inst.n
    remaining = [m.masses.copy() for m in inst.measures]
    pointers = [0] * n
    w = SparseMass()
    assigned = 0.0
    while assigned < 1.0 - ZERO_TOL:
        mass = min(remaining[i][pointers[i]] for i in range(n))
        h = index_of(pointers, strides)
        w.add(h, mass)
        assigned += mass
        for i in range(n):
            remaining[i][pointers[i]] -= mass
            if remaining[i][pointers[i]] <= ZERO_TOL and pointers[i] + 1 < inst.sizes[i]:
                pointers[i] += 1
    return w


@dataclass
class ApproxBarycenter:
    """A feasible measure supported on the original input points.

    ``flows[i][s]`` lists (point index, mass) pairs sent from support point s
    into measure i; per measure they sum to ``mass[s]`` and per target point
    to that point's mass.
    """

    support: np.ndarray  # (S, dim)
    mass: np.ndarray  # (S,)
    flows: list[list[list[tuple[int, float]]]]  # [measure][support point]

    def validate(self, inst: Instance, tol: float = 1e-9):
        if abs(self.mass.sum() - 1.0) > tol:
            raise ContractError("approximate barycenter mass does not sum to 1")
        for i, measure_flows in enumerate(self.flows):
            into = np.zeros(inst.sizes[i])
            for s, pairs in enumerate(measure_flows):
                out = sum(q for _, q in pairs)
                if abs(out - self.mass[s]) > tol:
                    raise ContractError(
                        f"support point {s} sends {out} into measure {i}, "
                        f"holds {self.mass[s]}"
                    )
                for j, q in pairs:
                    into[j] += q
            if np.abs(into - inst.measures[i].masses).max() > tol:
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


def two_approx(inst: Instance) -> ApproxBarycenter:
    """Best measure supported on the union of input points, with transport.

    The z variable of each candidate point is eliminated by identifying it
    with that point's outflow into the first measure.
    """
    cand = _candidate_points(inst)
    S = len(cand)
    n = inst.n
    sizes = inst.sizes

    # Variable layout: y[i][s][j] flattened measure-major.
    offsets = []
    pos = 0
    for i in range(n):
        offsets.append(pos)
        pos += S * sizes[i]
    nvars = pos

    def var(i, s, j):
        return offsets[i] + s * sizes[i] + j

    cost = np.empty(nvars)
    for i in range(n):
        pts = inst.measures[i].points
        for s in range(S):
            d2 = np.einsum("ij,ij->i", cand[s] - pts, cand[s] - pts)
            cost[var(i, s, 0) : var(i, s, 0) + sizes[i]] = inst.lambdas[i] * d2

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
    if sol.status != simplex.OPTIMAL:
        raise RuntimeError(f"relocation LP ended with status {sol.status}")

    mass = np.zeros(S)
    for s in range(S):
        mass[s] = sol.x[var(0, s, 0) : var(0, s, 0) + sizes[0]].sum()
    keep = np.flatnonzero(mass > ZERO_TOL)
    flows = [
        [
            [
                (j, float(sol.x[var(i, s, j)]))
                for j in range(sizes[i])
                if sol.x[var(i, s, j)] > ZERO_TOL
            ]
            for s in keep
        ]
        for i in range(n)
    ]
    return ApproxBarycenter(cand[keep], mass[keep], flows)


def repair_to_vertex(
    apx: ApproxBarycenter, inst: Instance, strides: Strides | None = None
) -> SparseMass:
    """Split each approximate support point into whole-mass combinations.

    Walks every support point, repeatedly choosing the lowest-index
    destination with remaining flow in each measure and assigning the minimum
    remaining amount; the assigned mass lands at the weighted mean of the
    chosen combination, which never increases the transport cost.
    """
    apx.validate(inst)
    if strides is None:
        strides = make_strides(inst.sizes)
    n = inst.n
    w = SparseMass()
    for s in range(len(apx.mass)):
        rem = [dict(apx.flows[i][s]) for i in range(n)]
        left = float(apx.mass[s])
        while left > ZERO_TOL:
            combo = []
            chunk = left
            for i in range(n):
                live = [jj for jj, q in rem[i].items() if q > ZERO_TOL]
                if not live:  # sub-tolerance drift from LP rounding
                    chunk = 0.0
                    break
                j = min(live)
                combo.append(j)
                chunk = min(chunk, rem[i][j])
            if chunk <= ZERO_TOL:
                break
            w.add(index_of(combo, strides), chunk)
            left -= chunk
            for i in range(n):
                rem[i][combo[i]] -= chunk
    return w
