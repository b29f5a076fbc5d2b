"""Restricted master problem over convex combinations of pricing vertices.

The master LP keeps one row per support point of every measure outside the
pricing pair, plus a convexity row. Its columns are never read from a stored
constraint matrix: each new vertex has few nonzeros, and their rows come
straight from the index arithmetic. Warm starts reuse the previous basis, so
a re-solve after one appended column typically takes a handful of pivots.

Every column's entries in one measure's block of rows sum to its convexity
entry, so each block holds one row implied by the others. The simplex gets
the master without the last row of each block. A redundant row keeps an
artificial basic at level zero, and pivoting it out on a noise-sized element
leaves the basis numerically singular.

Once the master converges, the full LP over the union of the admitted
columns' supports gives a basic optimum. ``full_lp`` is that LP over any set
of combinations; the direct reference solve runs it over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .model import (
    MASS_TOL,
    ContractError,
    Instance,
    SparseMass,
    Strides,
    combination_cost,
    cost_vector,
    tuple_of,
    weighted_mean,
)


@dataclass
class MasterState:
    inst: Instance  # permuted so that the pricing pair leads
    strides: Strides
    columns: list[SparseMass]  # admitted vertices; cost and rows in _cost, _A
    rhs: np.ndarray  # master-row masses plus the trailing convexity 1
    mu: np.ndarray | None = None
    objective: float = np.nan
    basis: simplex.Basis | None = None
    last_pivots: int = 0
    _A: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    _cost: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _rows: np.ndarray | None = None  # rows of _A and rhs the simplex sees


def column_coeffs(p: SparseMass, strides_perm: Strides, master_rows: int) -> np.ndarray:
    """A vertex's entries in the master rows, without the convexity row."""
    coeffs = np.zeros(master_rows)
    offsets = strides_perm.row_offsets
    for h, q in p.entries.items():
        digits = tuple_of(h, strides_perm).indices
        for t in range(2, len(digits)):
            coeffs[offsets[t] - offsets[2] + digits[t]] += q
    return coeffs


def init_rm(p1: SparseMass, inst_perm: Instance, strides_perm: Strides) -> MasterState:
    """Master with the starting vertex as its only column, left for solve_rm."""
    master_rows = sum(inst_perm.sizes[2:])
    rhs = np.concatenate(
        [m.masses for m in inst_perm.measures[2:]] + [np.ones(1)]
    )
    state = MasterState(inst_perm, strides_perm, columns=[], rhs=rhs)
    state._A = np.zeros((master_rows + 1, 0))
    state._cost = np.zeros(0)
    block_ends = np.cumsum(inst_perm.sizes[2:]) - 1
    state._rows = np.delete(np.arange(master_rows + 1), block_ends)
    add_column(state, p1, column_coeffs(p1, strides_perm, master_rows))
    resid = np.abs(state._A[:, 0] - rhs).max()
    if resid > 1e-9:
        raise ContractError(f"initial vertex violates the master rows by {resid}")
    return state


def add_column(state: MasterState, p: SparseMass, coeffs: np.ndarray):
    """Append vertex p given its master-row entries (column_coeffs)."""
    state.columns.append(p)
    full = np.concatenate([coeffs, [1.0]])
    state._A = np.hstack([state._A, full[:, None]])
    index = np.fromiter(p.entries, dtype=np.int64, count=len(p))
    costs = cost_vector(state.inst, state.strides, index)
    cost = sum(q * c for q, c in zip(p.entries.values(), costs))
    state._cost = np.append(state._cost, cost)


def master_lp(state: MasterState) -> simplex.DenseLP:
    """The master as the simplex sees it: without the implied row of each block."""
    return simplex.DenseLP(state._cost, state._A[state._rows], state.rhs[state._rows])


def solve_rm(state: MasterState) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Optimize the current master, warm-starting from the previous basis.

    Returns (mu, y, sigma, objective), with y over every master row: the dual
    of each dropped row is zero. Shifting a block's duals by a constant and
    sigma by its negative leaves every reduced cost unchanged, so this is a
    dual optimum of the full master too.
    """
    sol = simplex.solve(master_lp(state), warm=state.basis)
    if sol.status != simplex.OPTIMAL:
        raise RuntimeError(
            f"master problem returned {sol.status}; it must stay feasible"
        )
    state.mu = sol.x
    state.objective = sol.objective
    state.basis = sol.basis
    state.last_pivots = sol.pivots
    duals = np.zeros(state.rhs.shape[0])
    duals[state._rows] = sol.duals
    return state.mu, duals[:-1], float(duals[-1]), state.objective


@dataclass
class BarycenterPoint:
    coords: np.ndarray
    mass: float
    assignment: tuple[int, ...]  # point index per measure, original order


def _combine(state: MasterState) -> SparseMass:
    w = SparseMass()
    for weight, col in zip(state.mu, state.columns):
        if weight > 1e-12:
            for h, q in col.entries.items():
                w.add(h, weight * q)
    return w


def full_lp(
    support: np.ndarray, inst: Instance, strides: Strides
) -> tuple[str, SparseMass]:
    """Basic optimum of the full barycenter LP restricted to some combinations.

    Keeps every measure row; combination ``support[j]`` is a unit column with
    a one in its point's row of each measure. Returns the simplex status and
    the entries with x above MASS_TOL, which are empty unless the status is
    optimal.
    """
    rows = np.empty((inst.n, support.size), dtype=np.int64)
    for i in range(inst.n):
        np.floor_divide(support, strides.suffix_products[i], out=rows[i])
        rows[i] %= strides.sizes[i]
        rows[i] += strides.row_offsets[i]
    provider = simplex.UnitColumns(rows, nrows=strides.row_offsets[-1])
    rhs = np.concatenate([m.masses for m in inst.measures])
    sol = simplex.solve_columns(provider, cost_vector(inst, strides, support), rhs)
    if sol.status != simplex.OPTIMAL:
        return sol.status, SparseMass()
    keep = np.flatnonzero(sol.x > MASS_TOL)
    return sol.status, SparseMass({int(support[j]): float(sol.x[j]) for j in keep})


def recover_solution(state: MasterState) -> SparseMass:
    """Basic optimum over the union of the admitted columns' supports.

    The converged master weights combine into an optimal but dense plan; the
    full LP over the same combinations gives a vertex with at most
    sum |P_i| - n + 1 entries. Falls back to the combined weights when that
    re-solve does not report an optimum.
    """
    support = np.array(
        sorted({h for col in state.columns for h in col.entries}), dtype=np.int64
    )
    status, polished = full_lp(support, state.inst, state.strides)
    return polished if status == simplex.OPTIMAL else _combine(state)


def barycenter_points(
    w: SparseMass, inst_perm: Instance, perm: tuple[int, ...], strides_perm: Strides
) -> tuple[list[BarycenterPoint], float]:
    """Points of a plan in ascending combination order, and its objective.

    Measure t of ``inst_perm`` is measure ``perm[t]`` of the input; every
    assignment lists point indices in input order.
    """
    points = []
    objective = 0.0
    for h, mass in w.sorted_items():
        combo = tuple_of(h, strides_perm)
        original = [0] * inst_perm.n
        for t, j in enumerate(combo.indices):
            original[perm[t]] = j
        objective += mass * combination_cost(combo, inst_perm)
        points.append(
            BarycenterPoint(weighted_mean(combo, inst_perm), mass, tuple(original))
        )
    return points, objective
