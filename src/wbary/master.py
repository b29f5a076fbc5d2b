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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .model import (
    ContractError,
    Instance,
    SparseMass,
    Strides,
    column_support,
    combination_cost,
    tuple_of,
    weighted_mean,
)
from .pricing import Partition


@dataclass
class MasterState:
    columns: list[SparseMass]  # admitted vertices; cost and rows in _cost, _A
    rhs: np.ndarray  # master-row masses plus the trailing convexity 1
    mu: np.ndarray | None = None
    objective: float = np.nan
    basis: simplex.Basis | None = None
    last_pivots: int = 0
    _A: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    _cost: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _rows: np.ndarray | None = None  # rows of _A and rhs the simplex sees


def _column_coeffs(p: SparseMass, strides_perm: Strides, master_rows: int) -> np.ndarray:
    coeffs = np.zeros(master_rows)
    offsets = strides_perm.row_offsets
    for h, q in p.entries.items():
        digits = tuple_of(h, strides_perm).indices
        for t in range(2, len(digits)):
            coeffs[offsets[t] - offsets[2] + digits[t]] += q
    return coeffs


def _column_cost(p: SparseMass, costs: np.ndarray) -> float:
    return float(sum(q * costs[h] for h, q in p.entries.items()))


def init_rm(
    p1: SparseMass,
    inst_perm: Instance,
    partition: Partition,
    strides_perm: Strides,
    costs: np.ndarray,
) -> MasterState:
    """Master with the single starting vertex; solves trivially to mu = (1)."""
    master_rows = sum(inst_perm.sizes[2:])
    rhs = np.concatenate(
        [m.masses for m in inst_perm.measures[2:]] + [np.ones(1)]
    )
    state = MasterState(columns=[], rhs=rhs)
    state._A = np.zeros((master_rows + 1, 0))
    state._cost = np.zeros(0)
    block_ends = np.cumsum(inst_perm.sizes[2:]) - 1
    state._rows = np.delete(np.arange(master_rows + 1), block_ends)
    add_column(state, p1, strides_perm, costs)
    resid = np.abs(state._A[:, 0] - rhs).max()
    if resid > 1e-9:
        raise ContractError(f"initial vertex violates the master rows by {resid}")
    solve_rm(state)
    return state


def add_column(
    state: MasterState, p: SparseMass, strides_perm: Strides, costs: np.ndarray
):
    """Append one vertex; its aggregated rows are built from its support."""
    master_rows = state.rhs.shape[0] - 1
    coeffs = _column_coeffs(p, strides_perm, master_rows)
    state.columns.append(p)
    full = np.concatenate([coeffs, [1.0]])
    state._A = np.hstack([state._A, full[:, None]])
    state._cost = np.append(state._cost, _column_cost(p, costs))


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


@dataclass
class Barycenter:
    points: list[BarycenterPoint]
    objective: float


def _combine(state: MasterState) -> SparseMass:
    w = SparseMass()
    for weight, col in zip(state.mu, state.columns):
        if weight > 1e-12:
            for h, q in col.entries.items():
                w.add(h, weight * q)
    return w


def _polish(
    w: SparseMass, state: MasterState, inst_perm: Instance, strides_perm: Strides,
    costs: np.ndarray,
) -> SparseMass:
    """Re-solve over the union of admitted supports for a basic (sparse) optimum."""
    support = sorted({h for col in state.columns for h in col.entries})
    rows = sum(inst_perm.sizes)
    A = np.zeros((rows, len(support)))
    for jcol, h in enumerate(support):
        A[list(column_support(h, strides_perm)), jcol] = 1.0
    rhs = np.concatenate([m.masses for m in inst_perm.measures])
    cost = np.array([costs[h] for h in support])
    sol = simplex.solve(simplex.DenseLP(cost, A, rhs))
    if sol.status != simplex.OPTIMAL:
        return w
    polished = SparseMass()
    for jcol, h in enumerate(support):
        polished.add(h, float(sol.x[jcol]))
    return polished


def recover_solution(
    state: MasterState,
    inst_perm: Instance,
    partition: Partition,
    strides_perm: Strides,
    costs: np.ndarray,
) -> tuple[Barycenter, Barycenter]:
    """Accumulated barycenter from the converged weights, plus a polished vertex.

    Returns (raw, polished). Assignments are reported in the original measure
    order, undoing the pricing permutation.
    """
    raw_mass = _combine(state)
    raw = _to_barycenter(raw_mass, inst_perm, partition, strides_perm)
    polished_mass = _polish(raw_mass, state, inst_perm, strides_perm, costs)
    return raw, _to_barycenter(polished_mass, inst_perm, partition, strides_perm)


def _to_barycenter(
    w: SparseMass, inst_perm: Instance, partition: Partition, strides_perm: Strides
) -> Barycenter:
    points = []
    objective = 0.0
    inverse = partition.perm
    n = inst_perm.n
    for h, mass in w.sorted_items():
        combo = tuple_of(h, strides_perm)
        coords = weighted_mean(combo, inst_perm)
        original = [0] * n
        for t in range(n):
            original[inverse[t]] = combo.indices[t]
        objective += mass * combination_cost(combo, inst_perm)
        points.append(BarycenterPoint(coords, mass, tuple(original)))
    return Barycenter(points, objective)
