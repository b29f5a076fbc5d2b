"""Exact solver for the balanced transportation problem.

Primal transportation simplex: northwest-corner starting basis, dual (u, v)
potentials recomputed over the basis tree, most-negative entering cell with
lexicographic tie-breaking, and zero-flow basic cells for degeneracy. Costs
may be negative. All ties resolve to the lowest (row, col) pair so repeated
runs produce identical plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ContractError

BALANCE_TOL = 1e-9
FLOW_TOL = 1e-15
REDUCED_TOL = 1e-10  # reduced cost below -REDUCED_TOL enters
BLAND_AFTER = 50  # degenerate pivots in a row before the lex-lowest rule


@dataclass
class TransportationProblem:
    supplies: np.ndarray  # (m,) positive
    demands: np.ndarray  # (k,) positive
    costs: np.ndarray  # (m, k)


@dataclass
class TransportPlan:
    flows: list[tuple[int, int, float]]  # (row, col, mass), lexicographic
    objective: float


def _northwest_corner(supplies, demands):
    """Initial basis of exactly m + k - 1 cells along a staircase walk."""
    m, k = len(supplies), len(demands)
    rs = supplies.copy()
    rd = demands.copy()
    cells = {}
    i = j = 0
    while True:
        q = min(rs[i], rd[j])
        cells[(i, j)] = q
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
    return cells


def _potentials(cells, costs, m, k):
    """Dual values u, v with u[0] = 0, solved over the spanning-tree basis."""
    adj = [[] for _ in range(m + k)]
    for (i, j) in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    u = np.zeros(m)
    v = np.zeros(k)
    seen = [False] * (m + k)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if seen[nxt]:
                continue
            seen[nxt] = True
            if node < m:
                v[nxt - m] = costs[node, nxt - m] - u[node]
            else:
                u[nxt] = costs[nxt, node - m] - v[node - m]
            stack.append(nxt)
    if not all(seen):
        raise ContractError("basis graph is disconnected")
    return u, v


def _tree_path(by_row, by_col, start_row, target_col):
    """Cells along the tree path row(start) -> ... -> col(target)."""
    parent = {}
    node = ("r", start_row)
    frontier = [node]
    parent[node] = None
    found = None
    while frontier and found is None:
        nxt_frontier = []
        for nd in frontier:
            kind, idx = nd
            if kind == "r":
                for j in by_row.get(idx, ()):
                    child = ("c", j)
                    if child in parent:
                        continue
                    parent[child] = (nd, (idx, j))
                    if j == target_col:
                        found = child
                        break
                    nxt_frontier.append(child)
            else:
                for i in by_col.get(idx, ()):
                    child = ("r", i)
                    if child in parent:
                        continue
                    parent[child] = (nd, (i, idx))
                    nxt_frontier.append(child)
            if found:
                break
        frontier = nxt_frontier
    if found is None:
        raise ContractError("entering cell closes no cycle; basis corrupt")
    cells_on_path = []
    nd = found
    while parent[nd] is not None:
        nd, cell = parent[nd]
        cells_on_path.append(cell)
    cells_on_path.reverse()
    return cells_on_path


def solve_transportation(tp: TransportationProblem) -> TransportPlan:
    """Optimal basic flow for a balanced transportation problem."""
    supplies = np.asarray(tp.supplies, dtype=float)
    demands = np.asarray(tp.demands, dtype=float)
    costs = np.asarray(tp.costs, dtype=float)
    m, k = costs.shape
    if supplies.shape != (m,) or demands.shape != (k,):
        raise ContractError("marginal lengths do not match the cost matrix")
    if np.any(supplies <= 0.0) or np.any(demands <= 0.0):
        raise ContractError("marginals must be strictly positive")
    if abs(supplies.sum() - demands.sum()) > BALANCE_TOL:
        raise ContractError(
            f"unbalanced problem: supply {supplies.sum()!r} vs demand {demands.sum()!r}"
        )

    cells = _northwest_corner(supplies, demands)
    bland = False
    degen_streak = 0
    while True:
        u, v = _potentials(cells, costs, m, k)
        red = costs - u[:, None] - v[None, :]
        for (i, j) in cells:
            red[i, j] = np.inf  # basics never enter
        if bland:
            neg = np.argwhere(red < -REDUCED_TOL)
            if neg.size == 0:
                break
            ei, ej = map(int, neg[0])  # argwhere is row-major, so lex-lowest
        else:
            flat = int(np.argmin(red))
            ei, ej = divmod(flat, k)
            if red[ei, ej] >= -REDUCED_TOL:
                break

        by_row = {}
        by_col = {}
        for (i, j) in cells:
            by_row.setdefault(i, []).append(j)
            by_col.setdefault(j, []).append(i)
        path = _tree_path(by_row, by_col, ei, ej)
        minus = path[0::2]  # first basic cell shares the entering row: it shrinks
        theta = max(min(cells[c] for c in minus), 0.0)
        candidates = [c for c in minus if cells[c] <= theta + FLOW_TOL]
        leave = min(candidates)
        for c in minus:
            cells[c] = max(cells[c] - theta, 0.0)
        for c in path[1::2]:
            cells[c] += theta
        del cells[leave]
        cells[(ei, ej)] = theta
        if theta <= FLOW_TOL:
            degen_streak += 1
            if degen_streak > BLAND_AFTER:
                bland = True
        else:
            degen_streak = 0
            bland = False

    flows = sorted((i, j, q) for (i, j), q in cells.items() if q > FLOW_TOL)
    objective = float(sum(q * costs[i, j] for i, j, q in flows))
    return TransportPlan(flows, objective)
