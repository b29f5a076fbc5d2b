"""Exact solver for the balanced transportation problem.

Primal transportation simplex: northwest-corner starting basis,
most-negative entering cell with lexicographic tie-breaking, and zero-flow
basic cells for degeneracy. Each pivot walks the basis once: a depth-first
pass from row 0 roots the spanning tree there and gives the dual (u, v)
potentials with each node's parent and depth. The entering cell's cycle is the
tree path from its row to its column, found by climbing both ends to their
lowest common ancestor. Costs may be negative. All ties resolve to the lowest
(row, col) pair so repeated runs produce identical plans.
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


def _basis_tree(cells, costs, m, k):
    """Potentials u, v (u[0] = 0) and the rooted basis tree.

    One depth-first walk from row 0: node i < m is row i, node m + j is
    column j, and each node gets its parent and depth in the tree.
    """
    adj = [[] for _ in range(m + k)]
    for (i, j) in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    u = np.zeros(m)
    v = np.zeros(k)
    parent = [-1] * (m + k)
    depth = [-1] * (m + k)
    depth[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if depth[nxt] >= 0:
                continue
            parent[nxt] = node
            depth[nxt] = depth[node] + 1
            if node < m:
                v[nxt - m] = costs[node, nxt - m] - u[node]
            else:
                u[nxt] = costs[nxt, node - m] - v[node - m]
            stack.append(nxt)
    if min(depth) < 0:
        raise ContractError("basis graph is disconnected")
    return u, v, parent, depth


def _cycle_path(parent, depth, m, row, col):
    """Basic cells on the tree path row -> ... -> column, in walk order."""
    a, b = row, m + col
    up, down = [a], [b]
    while a != b:  # climb the deeper end until both meet at the common ancestor
        if depth[a] >= depth[b]:
            a = parent[a]
            up.append(a)
        else:
            b = parent[b]
            down.append(b)
    nodes = up + down[-2::-1]  # both lists end at the ancestor: keep it once
    return [(x, y - m) if x < m else (y, x - m) for x, y in zip(nodes, nodes[1:])]


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
        u, v, parent, depth = _basis_tree(cells, costs, m, k)
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

        path = _cycle_path(parent, depth, m, ei, ej)
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
