"""Restricted master problem over convex combinations of pricing vertices.

The master LP keeps one row per support point of every measure outside the
pricing pair, plus a convexity row. Its columns are vertices, each a
``model.Plan``, the one plan format: an index array of combinations and a
mass array. They are never read from a stored constraint matrix: each new
vertex has few nonzeros, and one decode of its combination indices
(``model.digits``) gives both its rows and its cost, as it does for the full
LP. The master keeps one simplex kernel from its first solve to its last.
Each column is appended to it, and a re-solve starts from the optimal basis
and inverse the kernel holds, so it typically takes a handful of pivots.

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
    Plan,
    Strides,
    cost_vector,
    digits,
    mean_costs,
)


@dataclass
class MasterState:
    inst: Instance  # permuted so that the pricing pair leads
    strides: Strides
    columns: list[Plan]  # admitted vertices; their rows are in kernel
    rhs: np.ndarray  # master-row masses plus the trailing convexity 1
    _rows: np.ndarray  # rows of rhs the simplex sees
    kernel: simplex.Kernel  # over those rows
    costs: np.ndarray = field(default_factory=lambda: np.empty(0))  # one per column
    mu: np.ndarray | None = None
    objective: float = np.nan
    last_pivots: int = 0


def column_coeffs(
    p: Plan, inst_perm: Instance, strides_perm: Strides
) -> tuple[np.ndarray, float]:
    """A vertex's entries in the master rows, without the convexity row, and
    its cost, from one decode of its combinations.

    One bincount over the trailing measures' rows: each row sums its masses
    in the vertex's entry order. The cost sums mass times ``mean_costs`` cost
    over numpy scalars in entry order, unlike np.dot.
    """
    d = digits(p.index, strides_perm)
    offsets = np.asarray(strides_perm.row_offsets[2:-1]) - strides_perm.row_offsets[2]
    rows = d[2:] + offsets[:, None]
    coeffs = np.bincount(
        rows.ravel(), weights=np.tile(p.mass, rows.shape[0]),
        minlength=strides_perm.row_offsets[-1] - strides_perm.row_offsets[2],
    )
    return coeffs, sum(p.mass * mean_costs(inst_perm, d)[1])


def init_rm(p1: Plan, inst_perm: Instance, strides_perm: Strides) -> MasterState:
    """Master with the starting vertex as its only column, left for solve_rm."""
    master_rows = sum(inst_perm.sizes[2:])
    rhs = np.concatenate(
        [m.masses for m in inst_perm.measures[2:]] + [np.ones(1)]
    )
    coeffs, cost = column_coeffs(p1, inst_perm, strides_perm)
    resid = np.abs(np.append(coeffs, 1.0) - rhs).max()
    if resid > 1e-9:
        raise ContractError(f"initial vertex violates the master rows by {resid}")
    block_ends = np.cumsum(inst_perm.sizes[2:]) - 1
    rows = np.delete(np.arange(master_rows + 1), block_ends)
    kernel = simplex.Kernel(simplex.DenseColumns(np.empty((rows.size, 0))), rhs[rows])
    state = MasterState(inst_perm, strides_perm, [], rhs, rows, kernel)
    add_column(state, p1, coeffs, cost)
    return state


def add_column(state: MasterState, p: Plan, coeffs: np.ndarray, cost: float):
    """Append vertex p given its master-row entries and cost (column_coeffs)."""
    state.columns.append(p)
    state.kernel.cols.append(np.append(coeffs, 1.0)[state._rows])
    state.costs = np.concatenate((state.costs, [cost]))


def solve_rm(state: MasterState) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Optimize the current master from the basis of its last solve.

    Returns (mu, y, sigma, objective), with y over every master row: the dual
    of each dropped row is zero. Shifting a block's duals by a constant and
    sigma by its negative leaves every reduced cost unchanged, so this is a
    dual optimum of the full master too.
    """
    sol = simplex.solve_columns(state.kernel, state.costs)
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


def _combine(state: MasterState) -> Plan:
    """The columns weighted by the master solution, terms at most MASS_TOL
    dropped; a combination's terms add up in column order."""
    used = [(mu, col) for mu, col in zip(state.mu, state.columns) if mu > 1e-12]
    index = np.concatenate([col.index for _, col in used])
    mass = np.concatenate([mu * col.mass for mu, col in used])
    keep = mass > MASS_TOL
    support, inverse = np.unique(index[keep], return_inverse=True)
    return Plan(support, np.bincount(inverse, weights=mass[keep]))


def full_lp(support: np.ndarray, inst: Instance, strides: Strides) -> Plan:
    """Basic optimum of the full barycenter LP restricted to some combinations.

    Keeps every measure row; combination ``support[j]`` is a unit column with
    a one in its point's row of each measure. Returns the entries with x above
    MASS_TOL; raises simplex.NumericalError if the simplex ends without an
    optimum.
    """
    cost = cost_vector(inst, strides, support)  # its digits freed before rows
    rows = digits(support, strides)
    rows += np.asarray(strides.row_offsets[:-1])[:, None]
    provider = simplex.UnitColumns(rows, nrows=strides.row_offsets[-1])
    rhs = np.concatenate([m.masses for m in inst.measures])
    kernel = simplex.Kernel(provider, rhs)
    sol = simplex.solve_columns(kernel, cost)
    keep = sol.x > MASS_TOL
    return Plan(support[keep], sol.x[keep])


def recover_solution(state: MasterState) -> Plan:
    """Basic optimum over the union of the admitted columns' supports.

    The converged master weights combine into an optimal but dense plan; the
    full LP over the same combinations gives a vertex with at most
    sum |P_i| - n + 1 entries. Falls back to the combined weights when that
    re-solve raises NumericalError, so a pivoting failure in the polish does
    not end a converged solve.
    """
    support = np.unique(np.concatenate([col.index for col in state.columns]))
    try:
        return full_lp(support, state.inst, state.strides)
    except simplex.NumericalError:
        return _combine(state)


def barycenter_points(
    w: Plan, inst_perm: Instance, perm: tuple[int, ...], strides_perm: Strides
) -> tuple[list[BarycenterPoint], float]:
    """Points of a plan in ascending combination order, and its objective.

    Measure t of ``inst_perm`` is measure ``perm[t]`` of the input; every
    assignment lists point indices in input order. The objective sums mass
    times ``mean_costs`` cost in that order, the costs the LPs were solved on.
    """
    order = np.argsort(w.index, kind="stable")
    d = digits(w.index[order], strides_perm)
    coords, costs = mean_costs(inst_perm, d)
    assignments = d[np.argsort(perm)].T.tolist()  # row perm[t] is row t of d
    points = []
    objective = 0.0
    masses = w.mass[order].tolist()
    for mass, cost, x, a in zip(masses, costs.tolist(), coords, assignments):
        objective += mass * cost
        points.append(BarycenterPoint(x, mass, tuple(a)))
    return points, objective
