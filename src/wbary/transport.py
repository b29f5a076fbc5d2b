"""Exact solver for the balanced transportation problem.

Primal transportation simplex: most-negative entering cell with
lexicographic tie-breaking, and zero-flow basic cells for degeneracy. A
problem has one Basis, built by northwest_corner, which checks the
marginals; each solve pivots it in place to the optimum of its costs, and
since only the costs change between solves it stays primal feasible. The
basis keeps its spanning tree rooted at row 0, with the nodes in preorder
(Kelly & O'Neill's thread). A solve sets the dual potentials once, top-down;
a pivot re-roots the subtree that the leaving cell cuts off at the entering
cell and redoes only that subtree. A potential is the alternating sum of the
cell costs on its node's path from row 0, taken from the top, so it is the
same float however the tree came about. The reduced costs (c_ij - u_i) - v_j
are rewritten in place into one m x k buffer per solve, so a solve holds two
cost-sized arrays, the costs and that buffer, and the lowest-cell rule adds
a one-byte mask. The entering cell's cycle is the tree path from its row to
its column. Costs may be negative but must be finite. Potentials, sums of
up to m + k - 1 costs, may still overflow, and inf - inf is a NaN that
argmin picks and no pivot prices out, so a solve raises ContractError at a
non-finite entering reduced cost or potential. All ties resolve to the
lowest flat cell i * k + j, so solves from the same basis produce identical
plans, in any order of its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    pivots: int  # pivots of this solve


@dataclass
class Basis:
    """A basic feasible flow of one problem, changed in place by each solve:
    its marginals, its m + k - 1 basic flat cells with their flows, zero
    flows too, in no particular order, and their tree. Node i < m is row i
    and node m + j column j; link is the position in cells of the cell that
    joins a node to its parent, pot its potential at the last solve's costs,
    and in order each subtree is a run."""

    supplies: np.ndarray
    demands: np.ndarray
    cells: list[int]
    flows: list[float]
    parent: list[int] = field(init=False, repr=False)
    depth: list[int] = field(init=False, repr=False)
    link: list[int] = field(init=False, repr=False)
    order: list[int] = field(init=False, repr=False)
    pot: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        m, k = len(self.supplies), len(self.demands)
        cells = np.asarray(self.cells)
        if cells.shape != (m + k - 1,) or len(self.flows) != m + k - 1:
            raise ContractError(f"a basis needs {m + k - 1} cells and as many flows")
        if cells.dtype.kind not in "iu" or not 0 <= cells.min() <= cells.max() < m * k:
            raise ContractError("basis cells must be integer cells of the cost matrix")
        self.cells = cells.tolist()
        nbrs = [[] for _ in range(m + k)]
        for pos, c in enumerate(self.cells):
            i, j = divmod(c, k)
            nbrs[i].append((m + j, pos))
            nbrs[m + j].append((i, pos))
        self.parent, self.depth, self.link = [-1] * (m + k), [0] * (m + k), [-1] * (m + k)
        self.order, stack = [], [0]
        while stack:  # depth-first from row 0, each node once
            a = stack.pop()
            self.order.append(a)
            for b, pos in nbrs[a]:
                if b and self.parent[b] < 0:
                    self.parent[b], self.depth[b], self.link[b] = a, self.depth[a] + 1, pos
                    stack.append(b)
        if len(self.order) != m + k:
            raise ContractError("basis cells do not form a spanning tree")
        self.pot = [0.0] * (m + k)


def northwest_corner(supplies, demands) -> Basis:
    """The basis along a staircase walk, once the marginals are shown to be
    nonempty vectors of finite positive entries whose sums agree within
    BALANCE_TOL."""
    supplies = np.asarray(supplies, dtype=float)
    demands = np.asarray(demands, dtype=float)
    if supplies.ndim != 1 or demands.ndim != 1 or not supplies.size or not demands.size:
        raise ContractError("marginals must be nonempty vectors")
    if not all(np.isfinite(v).all() and (v > 0.0).all() for v in (supplies, demands)):
        raise ContractError("marginals must be finite and strictly positive")
    if abs(supplies.sum() - demands.sum()) > BALANCE_TOL:
        raise ContractError(
            f"unbalanced problem: supply {supplies.sum()!r} vs demand {demands.sum()!r}"
        )
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
    return Basis(supplies, demands, cells, flows)


def _cycle_path(parent, link, depth, a, b):
    """Basis positions of the cells on the tree path a -> ... -> b, in order,
    and how many of them lie on a's side of the lowest common ancestor."""
    up, down = [], []
    while a != b:  # climb the deeper end until both meet at the common ancestor
        if depth[a] >= depth[b]:
            up.append(link[a])
            a = parent[a]
        else:
            down.append(link[b])
            b = parent[b]
    return up + down[::-1], len(up)


def _rehang(basis, below, above, leave, cell_costs):
    """Hang the subtree that the cell at position leave cuts off from above,
    re-rooted at below, the node in it that the entering cell, now at leave,
    joins to above. The stem from below up to the cut reverses its links and
    every other node keeps its parent; only the subtree's run of the
    preorder, its depths and its potentials change."""
    order, parent, depth, link, pot = (
        basis.order, basis.parent, basis.depth, basis.link, basis.pot
    )
    stem = [below]
    while link[stem[-1]] != leave:
        stem.append(parent[stem[-1]])
    # Each stem node's subtree is a run of order: from its place, found
    # top-down, to the next node no deeper, found bottom-up.
    starts, at = [], 0
    for x in reversed(stem):
        at = order.index(x, at)
        starts.append(at)
    starts.reverse()
    ends, end = [], at + 1
    for x in stem:
        while end < len(order) and depth[order[end]] > depth[x]:
            end += 1
        ends.append(end)
    # Re-rooted, in preorder: each stem node's run less the run of the stem
    # node below it, bottom-up.
    moved = order[starts[0] : ends[0]]
    for i in range(1, len(stem)):
        moved += order[starts[i] : starts[i - 1]] + order[ends[i - 1] : ends[i]]
    del order[starts[-1] : ends[-1]]
    at = order.index(above) + 1
    order[at:at] = moved
    for i in range(len(stem) - 1, 0, -1):
        parent[stem[i]], link[stem[i]] = stem[i - 1], link[stem[i - 1]]
    parent[stem[0]], link[stem[0]] = above, leave
    for b in moved:  # parents first
        depth[b] = depth[parent[b]] + 1
        pot[b] = cell_costs[link[b]] - pot[parent[b]]


@np.errstate(over="ignore", invalid="ignore")
def solve_transportation(costs: np.ndarray, basis: Basis) -> TransportPlan:
    """Optimal basic flow for finite costs over basis's marginals, pivoting
    basis in place from the feasible flow it holds to the optimum. Costs that
    overflow the potentials raise ContractError, not numpy's warning, and
    leave basis at the feasible flow of its last pivot."""
    costs = np.asarray(costs, dtype=float)
    m, k = len(basis.supplies), len(basis.demands)
    if costs.shape != (m, k):
        raise ContractError(f"costs of shape {costs.shape} for {m} x {k} marginals")
    if not np.isfinite(costs).all():
        raise ContractError("costs must be finite")

    cells, flows, parent, link, pot = (
        basis.cells, basis.flows, basis.parent, basis.link, basis.pot
    )
    flat_costs = costs.ravel()
    cell_costs = flat_costs[cells].tolist()  # of the basic cells only: no m * k list
    for b in basis.order[1:]:  # parents first; u_i + v_j = c_ij
        pot[b] = cell_costs[link[b]] - pot[parent[b]]
    red = np.empty((m, k))  # C-contiguous, so flat_red is a view
    flat_red = red.ravel()
    pivots = degen_streak = 0
    while True:
        uv = np.array(pot)
        np.subtract(costs, uv[:m, None], out=red)
        red -= uv[None, m:]
        flat_red[cells] = np.inf  # basics never enter
        if degen_streak > BLAND_AFTER:  # the lowest flat cell that prices out
            enter = int((flat_red < -REDUCED_TOL).argmax())
        else:
            enter = int(flat_red.argmin())
        red_enter = flat_red[enter]
        if red_enter >= -REDUCED_TOL:
            break
        if not red_enter > -np.inf:  # -inf or NaN
            raise ContractError("costs overflow the transport potentials")

        ei, ej = divmod(enter, k)
        path, n_up = _cycle_path(parent, link, basis.depth, ei, m + ej)
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
        # the entering cell's end on the leaving cell's side of the cycle
        # lies in the subtree that the leaving cell cuts off
        below, above = (ei, m + ej) if path.index(leave) < n_up else (m + ej, ei)
        _rehang(basis, below, above, leave, cell_costs)
        pivots += 1
        degen_streak = degen_streak + 1 if theta <= FLOW_TOL else 0

    if not all(map(math.isfinite, pot)):
        raise ContractError("costs overflow the transport potentials")
    index, mass = np.array(cells, dtype=np.int64), np.array(flows)
    ranks = index.argsort()
    ranks = ranks[mass[ranks] > FLOW_TOL]  # ascending cells with flow
    plan = Plan(index[ranks], mass[ranks])
    # Summed over numpy scalars in cell order: plain float additions.
    objective = float(sum(plan.mass * flat_costs[plan.index]))
    return TransportPlan(plan, objective, pivots)
