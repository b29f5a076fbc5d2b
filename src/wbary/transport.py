"""Exact solver for the balanced transportation problem.

Primal transportation simplex: most-negative entering cell with
lexicographic tie-breaking, and zero-flow basic cells for degeneracy. Flows
and bases are model.Plan arrays over the flat cells i * k + j. A solve starts
from a given basis, such as the one a solve with the same supplies and
demands returned: only the costs differ, so it is still primal feasible. It
is checked, and a bad one raises ContractError. Without one, the solve starts
from the northwest corner. Each pivot walks the basis, held in Python lists,
once: a depth-first pass from row 0 roots the spanning tree there and gives
the dual potentials and each node's parent, depth and joining basic cell.
The reduced costs (c_ij - u_i) - v_j are rewritten in place into one m x k
buffer per solve, so a solve holds two cost-sized arrays, the costs and that
buffer, and the lowest-cell rule adds a one-byte mask. The entering cell's
cycle is the tree path from its row to its column, found by climbing both
ends to their lowest common ancestor. Costs may be negative.
All ties resolve to the lowest flat cell, so runs from the same start produce
identical plans, in any basis order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ContractError, Plan

BALANCE_TOL = 1e-9
FLOW_TOL = 1e-15
REDUCED_TOL = 1e-10  # reduced cost below -REDUCED_TOL enters
BLAND_AFTER = 50  # degenerate pivots in a row before the lex-lowest rule


@dataclass
class TransportPlan:
    flows: Plan  # ascending flat cells with flow above FLOW_TOL
    objective: float
    basis: Plan  # all m + k - 1 basic cells, ascending, zero flows too
    pivots: int  # pivots of this solve


def _northwest_corner(supplies, demands):
    """Initial basis of exactly m + k - 1 cells along a staircase walk."""
    m, k = len(supplies), len(demands)
    rs, rd = supplies.tolist(), demands.tolist()
    cells, flows = [], []
    i = j = 0
    while True:
        q = min(rs[i], rd[j])
        cells.append(i * k + j)
        flows.append(q)
        rs[i] -= q
        rd[j] -= q
        if i == m - 1 and j == k - 1:
            break
        # Advance exactly one index per step; on ties prefer the row so a
        # zero-flow basic cell appears in the next column.
        if rs[i] <= FLOW_TOL and i < m - 1:
            i += 1
        else:
            j += 1
    return cells, flows


def _checked_basis(basis, supplies, demands):
    """A given basis's cells (int64) and flows, once it is shown to be a
    feasible basic flow: m + k - 1 integer cells in range, no negative flow,
    and row and column sums within BALANCE_TOL of the marginals. A connected
    tree is left to _basis_tree."""
    m, k = len(supplies), len(demands)
    index, mass = np.asarray(basis.index), np.asarray(basis.mass, dtype=float)
    if len(index) != len(mass):
        raise ContractError("a basis needs one flow per cell")
    if len(index) != m + k - 1:
        raise ContractError(f"a basis needs {m + k - 1} cells, got {len(index)}")
    if index.dtype.kind not in "iu":
        raise ContractError(f"basis cells must be integers, got {index.dtype}")
    if index.min() < 0 or index.max() >= m * k:
        raise ContractError("a basis cell lies outside the cost matrix")
    if not mass.min() >= 0.0:  # NaN too
        raise ContractError("a basis holds a negative flow")
    index = index.astype(np.int64, copy=False)
    row, col = np.divmod(index, k)
    if (
        np.abs(np.bincount(row, mass, m) - supplies).max() > BALANCE_TOL
        or np.abs(np.bincount(col, mass, k) - demands).max() > BALANCE_TOL
    ):
        raise ContractError("basis flows do not meet the marginals")
    return index, mass


def _basis_tree(cells, cell_costs, m, k):
    """Potentials (u then v, u[0] = 0) and the rooted basis tree.

    One depth-first walk from row 0: node i < m is row i, node m + j is column
    j, and each node gets its parent, its depth and the basis position of the
    cell that joins it to its parent.
    """
    adj = [[] for _ in range(m + k)]
    for pos, c in enumerate(cells):
        i, j = divmod(c, k)
        adj[i].append((m + j, pos))
        adj[m + j].append((i, pos))
    pot = [0.0] * (m + k)
    parent = [-1] * (m + k)
    link = [-1] * (m + k)
    depth = [-1] * (m + k)
    depth[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt, pos in adj[node]:
            if depth[nxt] >= 0:
                continue
            parent[nxt] = node
            link[nxt] = pos
            depth[nxt] = depth[node] + 1
            pot[nxt] = cell_costs[pos] - pot[node]  # u_i + v_j = c_ij
            stack.append(nxt)
    if min(depth) < 0:
        raise ContractError("basis graph is disconnected")
    return np.array(pot), parent, link, depth


def _cycle_path(parent, link, depth, a, b):
    """Basis positions of the cells on the tree path a -> ... -> b, in order."""
    up, down = [], []
    while a != b:  # climb the deeper end until both meet at the common ancestor
        if depth[a] >= depth[b]:
            up.append(link[a])
            a = parent[a]
        else:
            down.append(link[b])
            b = parent[b]
    return up + down[::-1]


def solve_transportation(
    supplies: np.ndarray, demands: np.ndarray, costs: np.ndarray,
    basis: Plan | None = None,
) -> TransportPlan:
    """Optimal basic flow for a balanced transportation problem, from a given
    feasible basis (flat cells and flows, as TransportPlan.basis) or the
    northwest corner."""
    supplies = np.asarray(supplies, dtype=float)
    demands = np.asarray(demands, dtype=float)
    costs = np.asarray(costs, dtype=float)
    m, k = costs.shape
    if supplies.shape != (m,) or demands.shape != (k,):
        raise ContractError("marginal lengths do not match the cost matrix")
    if (supplies <= 0.0).any() or (demands <= 0.0).any():
        raise ContractError("marginals must be strictly positive")
    if abs(supplies.sum() - demands.sum()) > BALANCE_TOL:
        raise ContractError(
            f"unbalanced problem: supply {supplies.sum()!r} vs demand {demands.sum()!r}"
        )

    if basis is None:
        cells, flows = _northwest_corner(supplies, demands)
    else:
        given = _checked_basis(basis, supplies, demands)
        cells, flows = given[0].tolist(), given[1].tolist()
    flat_costs = costs.ravel()
    cell_costs = flat_costs[cells].tolist()  # of the basic cells only: no m * k list
    red = np.empty((m, k))  # C-contiguous, so flat_red is a view
    flat_red = red.ravel()
    pivots = degen_streak = 0
    while True:
        pot, parent, link, depth = _basis_tree(cells, cell_costs, m, k)
        np.subtract(costs, pot[:m, None], out=red)
        red -= pot[None, m:]
        flat_red[cells] = np.inf  # basics never enter
        if degen_streak > BLAND_AFTER:  # the lowest flat cell that prices out
            enter = int((flat_red < -REDUCED_TOL).argmax())
        else:
            enter = int(flat_red.argmin())
        if flat_red[enter] >= -REDUCED_TOL:
            break

        ei, ej = divmod(enter, k)
        path = _cycle_path(parent, link, depth, ei, m + ej)
        minus = path[0::2]  # first basic cell shares the entering row: it shrinks
        theta = max(min(flows[p] for p in minus), 0.0)
        leave = min((cells[p], p) for p in minus if flows[p] <= theta + FLOW_TOL)[1]
        for p in minus:
            flows[p] = max(flows[p] - theta, 0.0)
        for p in path[1::2]:
            flows[p] += theta
        cells[leave] = enter
        cell_costs[leave] = float(flat_costs[enter])
        flows[leave] = theta
        pivots += 1
        degen_streak = degen_streak + 1 if theta <= FLOW_TOL else 0

    if pivots or basis is None:
        index, mass = np.array(cells, dtype=np.int64), np.array(flows)
    else:  # the given basis, unchanged
        index, mass = given
    order = index.argsort()
    basis = Plan(index[order], mass[order])
    keep = basis.mass > FLOW_TOL
    plan = Plan(basis.index[keep], basis.mass[keep])
    # Summed over numpy scalars in cell order: plain float additions.
    objective = float(sum(plan.mass * flat_costs[plan.index]))
    return TransportPlan(plan, objective, basis, pivots)
