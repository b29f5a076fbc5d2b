"""Restricted master problem over convex combinations of pricing vertices.

The master LP keeps one row per support point of every measure outside the
pricing pair, plus a convexity row. Its columns are never read from a stored
constraint matrix: each new vertex has few nonzeros, and their rows come
straight from its decoded combination indices (``model.digits``), as do the
full LP's rows. The master keeps one simplex kernel from its first solve to
its last. Each column is appended to it, and a re-solve starts from the
optimal basis and inverse the kernel holds, so it typically takes a handful
of pivots.

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
    cost_vector,
    digits,
    mean_costs,
)


@dataclass
class MasterState:
    inst: Instance  # permuted so that the pricing pair leads
    strides: Strides
    columns: list[SparseMass]  # admitted vertices; their rows are in kernel
    rhs: np.ndarray  # master-row masses plus the trailing convexity 1
    _rows: np.ndarray  # rows of rhs the simplex sees
    kernel: simplex.Kernel  # over those rows
    costs: list[float] = field(default_factory=list)  # one per column
    mu: np.ndarray | None = None
    objective: float = np.nan
    last_pivots: int = 0


def column_coeffs(p: SparseMass, strides_perm: Strides, master_rows: int) -> np.ndarray:
    """A vertex's entries in the master rows, without the convexity row.

    One bincount over the trailing measures' rows: each row sums its masses
    in the vertex's entry order.
    """
    index = np.fromiter(p.entries, dtype=np.int64, count=len(p))
    masses = np.fromiter(p.entries.values(), dtype=float, count=len(p))
    offsets = np.asarray(strides_perm.row_offsets[2:-1]) - strides_perm.row_offsets[2]
    rows = digits(index, strides_perm)[2:] + offsets[:, None]
    return np.bincount(
        rows.ravel(), weights=np.tile(masses, rows.shape[0]), minlength=master_rows
    )


def init_rm(p1: SparseMass, inst_perm: Instance, strides_perm: Strides) -> MasterState:
    """Master with the starting vertex as its only column, left for solve_rm."""
    master_rows = sum(inst_perm.sizes[2:])
    rhs = np.concatenate(
        [m.masses for m in inst_perm.measures[2:]] + [np.ones(1)]
    )
    coeffs = column_coeffs(p1, strides_perm, master_rows)
    resid = np.abs(np.append(coeffs, 1.0) - rhs).max()
    if resid > 1e-9:
        raise ContractError(f"initial vertex violates the master rows by {resid}")
    block_ends = np.cumsum(inst_perm.sizes[2:]) - 1
    rows = np.delete(np.arange(master_rows + 1), block_ends)
    kernel = simplex.Kernel(simplex.DenseColumns(np.empty((rows.size, 0))), rhs[rows])
    state = MasterState(inst_perm, strides_perm, [], rhs, rows, kernel)
    add_column(state, p1, coeffs)
    return state


def add_column(state: MasterState, p: SparseMass, coeffs: np.ndarray):
    """Append vertex p given its master-row entries (column_coeffs)."""
    state.columns.append(p)
    state.kernel.cols.append(np.append(coeffs, 1.0)[state._rows])
    index = np.fromiter(p.entries, dtype=np.int64, count=len(p))
    costs = cost_vector(state.inst, state.strides, index)
    state.costs.append(sum(q * c for q, c in zip(p.entries.values(), costs)))


def solve_rm(state: MasterState) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Optimize the current master from the basis of its last solve.

    Returns (mu, y, sigma, objective), with y over every master row: the dual
    of each dropped row is zero. Shifting a block's duals by a constant and
    sigma by its negative leaves every reduced cost unchanged, so this is a
    dual optimum of the full master too.
    """
    sol = simplex.solve_columns(state.kernel, state.costs)
    if sol.status != simplex.OPTIMAL:
        raise RuntimeError(
            f"master problem returned {sol.status}; it must stay feasible"
        )
    state.mu = sol.x
    state.objective = sol.objective
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
    cost = cost_vector(inst, strides, support)  # its digits freed before rows
    rows = digits(support, strides)
    rows += np.asarray(strides.row_offsets[:-1])[:, None]
    provider = simplex.UnitColumns(rows, nrows=strides.row_offsets[-1])
    rhs = np.concatenate([m.masses for m in inst.measures])
    kernel = simplex.Kernel(provider, rhs)
    sol = simplex.solve_columns(kernel, cost)
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
    assignment lists point indices in input order. The objective sums mass
    times ``mean_costs`` cost in that order, the costs the LPs were solved on.
    """
    entries = w.sorted_items()
    index = np.array([h for h, _ in entries], dtype=np.int64)
    d = digits(index, strides_perm)
    coords, costs = mean_costs(inst_perm, d)
    assignments = d[np.argsort(perm)].T.tolist()  # row perm[t] is row t of d
    points = []
    objective = 0.0
    for (_, mass), cost, x, a in zip(entries, costs.tolist(), coords, assignments):
        objective += mass * cost
        points.append(BarycenterPoint(x, mass, tuple(a)))
    return points, objective
