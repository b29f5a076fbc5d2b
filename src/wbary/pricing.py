"""Split reduced costs and the transportation-shaped pricing step.

The constraint rows of exactly two measures are delegated to pricing. With
those two measures permuted to the front, combination h = u * D + d pairs a
distinct pair-row pattern u ("unique column") with a duplicate index d over
the trailing measures, D being the product of their sizes. The trailing
measures split into a head group and a tail group, the suffix that makes the
state smallest (tail_start), so d = d_hi * n_lo + d_lo and h = e * n_lo + l
with e = (u, d_hi) and l = d_lo.

With P_e and Z_l the weighted point sums over (pair, head) and tail, the
reduced cost of h before the convexity dual is a_e + b_l - 2 P_e . Z_l, where
a_e = sum_{pair, head} l|x|^2 - |P_e|^2 - sum_head y and
b_l = sum_tail l|x|^2 - |Z_l|^2 - sum_tail y. Each of these sums is an outer
sum of per-measure terms over every digit combination of its group, built by
one helper (_outer_sum): the point and squared-norm sums once, and the dual
sums of a and b at every pricing. The per-pattern minima then take one tiled
product [P_e, 1] . [-2 Z; b], a row argmin, and a reduction over d_hi.
Arranged as a matrix over the two measures' points, the minima form the costs
of a balanced transportation problem over the pair's masses, which never
change: the state holds its one basis, and each pricing pivots it on.

No array of length N or D is held: the state has (n_e + n_lo) rows of
dim + 1 or fewer entries, and the split that minimises its bytes balances
the groups to about sqrt(N) rows each where the sizes allow. The duals are
whatever the driver prices at (smoothed, or the master duals);
solve_pricing returns the transport plan, whose objective leaves out the
dual terms the driver adds for reduced costs and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import ContractError, Instance, Plan
from .transport import Basis, TransportPlan, northwest_corner, solve_transportation


@dataclass(frozen=True)
class Partition:
    """Assignment of two measures to pricing, as a permutation of the input."""

    pair: tuple[int, int]  # original positions of the pricing measures
    perm: tuple[int, ...]  # permuted order: pair first, the rest in input order
    n_unique: int  # product of the pair's sizes


PAIR_VARIANTS = ("any", "large", "small")


def choose_partition(inst: Instance, variant: str = "large") -> Partition:
    """Pick the pricing pair: first two, two largest, or two smallest."""
    sizes = inst.sizes
    n = inst.n
    if n < 2:
        raise ValueError("a pricing pair needs at least two measures")
    if variant == "any":
        pair = (0, 1)
    elif variant == "large":
        order = sorted(range(n), key=lambda i: (-sizes[i], i))
        pair = tuple(sorted(order[:2]))
    elif variant == "small":
        order = sorted(range(n), key=lambda i: (sizes[i], i))
        pair = tuple(sorted(order[:2]))
    else:
        raise ValueError(f"unknown pair variant {variant!r}")
    rest = tuple(i for i in range(n) if i not in pair)
    return Partition(pair, pair + rest, sizes[pair[0]] * sizes[pair[1]])


def _split_bytes(sizes, dim: int, k: int) -> int:
    """Bytes of a PricingState whose tail group starts at measure k."""
    n_e, n_lo = math.prod(sizes[:k]), math.prod(sizes[k:])
    return 8 * (n_e * (dim + 3) + n_lo * (dim + 2) + 2 * sizes[0] * sizes[1])


def tail_start(sizes, dim: int) -> int:
    """First measure of the tail: the split with the fewest state bytes, ties
    going to the longer tail. For three or more measures the tail is never
    empty, since moving the last measure into the head never saves bytes."""
    return min(range(2, len(sizes) + 1), key=lambda k: _split_bytes(sizes, dim, k))


def state_bytes(sizes, dim: int) -> int:
    """Bytes the arrays of a PricingState over measures of these sizes hold."""
    return _split_bytes(sizes, dim, tail_start(sizes, dim))


@dataclass
class PricingState:
    """Split pricing data: head rows e = (u, d_hi) against tail columns l."""

    tail: int  # first measure of the tail group in the permuted order
    pe: np.ndarray  # (n_e, dim + 1): [P_e, 1]
    zb: np.ndarray  # (dim + 1, n_lo): [-2 Z_l; b_l], b_l at the priced duals
    a: np.ndarray  # (n_e,) a_e at the priced duals
    a_static: np.ndarray  # (n_e,) a_e at zero duals
    b_static: np.ndarray  # (n_lo,) b_l at zero duals
    best: np.ndarray  # (n_unique,) minimum reduced cost per unique column
    best_index: np.ndarray  # (n_unique,) flat index attaining each minimum
    basis: Basis  # of the pair's transport problem, left by the last pricing


def _outer_sum(parts, shape=()) -> np.ndarray:
    """Sum of one term per measure over every digit combination of some
    measures, in mixed-radix order (the last measure's digit varies fastest).
    parts[i] holds the i-th measure's terms, one of the given shape per point;
    no parts give a single zero term."""
    acc = np.zeros((1,) + shape)
    for v in reversed(parts):  # prepend digits: long inner loops
        acc = (v[:, None] + acc).reshape(-1, *shape)
    return acc


def init_reduced_costs(inst_perm: Instance) -> PricingState:
    """Build the split state of ``inst_perm``, the instance with the pricing
    pair first, at zero duals and the pair's northwest corner. best and
    best_index hold one entry per pair cell, left unset: every pricing fills
    them with best_costs before reading them.

    solve checks state_bytes against its cap before calling this.
    """
    k = tail_start(inst_perm.sizes, inst_perm.dim)
    n_unique = inst_perm.sizes[0] * inst_perm.sizes[1]
    weighted = tuple(zip(inst_perm.lambdas, inst_perm.measures))
    sq = [lam * m.sqnorms for lam, m in weighted]
    pts = [lam * m.points for lam, m in weighted]
    sq_e, p = _outer_sum(sq[:k]), _outer_sum(pts[:k], (inst_perm.dim,))
    sq_l, z = _outer_sum(sq[k:]), _outer_sum(pts[k:], (inst_perm.dim,))
    a_static = sq_e - np.einsum("ij,ij->i", p, p)
    b_static = sq_l - np.einsum("ij,ij->i", z, z)
    return PricingState(
        tail=k,
        pe=np.hstack([p, np.ones((p.shape[0], 1))]),
        zb=np.vstack([-2.0 * z.T, b_static]),
        a=a_static.copy(),
        a_static=a_static,
        b_static=b_static,
        best=np.empty(n_unique),
        best_index=np.empty(n_unique, dtype=np.int64),
        basis=northwest_corner(*(m.masses for m in inst_perm.measures[:2])),
    )


def update_reduced_costs(
    state: PricingState,
    y_old: np.ndarray,
    y_new: np.ndarray,
    partition: Partition,
    strides_perm: model.Strides,
):
    """Subtract the outer sums of y_new - y_old from a (head) and b (tail).
    Each holds one dual per master row; other lengths raise ContractError.
    strides_perm is the permuted instance's ``Instance.strides``."""
    off = [o - strides_perm.row_offsets[2] for o in strides_perm.row_offsets[2:]]
    y_old, y_new = np.asarray(y_old), np.asarray(y_new)
    if y_old.shape != (off[-1],) or y_new.shape != (off[-1],):
        raise ContractError(f"duals need one entry per master row, {off[-1]}")
    delta = y_new - y_old
    parts = [delta[lo:hi] for lo, hi in zip(off, off[1:])]  # one per master measure
    a = state.a.reshape(partition.n_unique, -1)
    a -= _outer_sum(parts[: state.tail - 2])
    state.zb[-1] -= _outer_sum(parts[state.tail - 2 :])


def recompute_reduced_costs(
    state: PricingState,
    y: np.ndarray,
    partition: Partition,
    strides_perm: model.Strides,
):
    """Rebuild a and b at duals y; the driver does so at every pricing."""
    state.a[:] = state.a_static
    state.zb[-1] = state.b_static
    update_reduced_costs(state, np.zeros_like(y), y, partition, strides_perm)


def best_costs(state: PricingState):
    """Per unique column, the minimum reduced cost among its duplicates.

    One pass of [P_e, 1] . [-2 Z; b] over tiles of at most model.BLOCK
    entries gives each row e its minimum over l; a later tile replaces a
    row's minimum only when strictly lower. Adding a_e and taking the first
    minimum over d_hi then keeps ties at the lowest flat index e * n_lo + l.
    """
    n_e, n_lo = state.a.shape[0], state.zb.shape[1]
    n_rows = max(1, model.BLOCK // n_lo)
    width = min(n_lo, model.BLOCK)
    row_min = np.full(n_e, np.inf)
    row_arg = np.empty(n_e, dtype=np.int64)
    buf = np.empty(min(n_rows, n_e) * width)
    for r0 in range(0, n_e, n_rows):
        r1 = min(r0 + n_rows, n_e)
        best, arg = row_min[r0:r1], row_arg[r0:r1]
        rows = np.arange(r1 - r0)
        for c0 in range(0, n_lo, width):
            zb = state.zb[:, c0 : c0 + width]
            tile = buf[: (r1 - r0) * zb.shape[1]].reshape(r1 - r0, -1)
            np.matmul(state.pe[r0:r1], zb, out=tile)
            local = np.argmin(tile, axis=1)  # first minimum, so lowest index
            value = tile[rows, local]
            lower = value < best
            best[lower] = value[lower]
            arg[lower] = c0 + local[lower]
            del local, value, lower  # not alive beside the next tile's
    row_min += state.a
    grid = row_min.reshape(state.best.size, -1)
    d_hi = np.argmin(grid, axis=1)
    u = np.arange(state.best.size)
    e = u * grid.shape[1] + d_hi
    state.best[:] = grid[u, d_hi]
    state.best_index[:] = e * n_lo + row_arg[e]


def solve_pricing(state: PricingState) -> TransportPlan:
    """Minimize the compressed reduced costs over the pair's transport polytope.

    The plan's objective is min over columns p of (c_p - duals . A_p) at the
    duals a and b were last rebuilt at, without the convexity dual; its cells
    index state.best. The transport simplex pivots state.basis on from the
    optimum of the last pricing.
    """
    costs = state.best.reshape(len(state.basis.supplies), len(state.basis.demands))
    return solve_transportation(costs, state.basis)


def expand_column(plan: TransportPlan, state: PricingState) -> Plan:
    """Lift a transport plan's flows above MASS_TOL back to full-space
    combination indices: each cell's minimizing combination."""
    keep = plan.flows.mass > model.MASS_TOL
    return Plan(state.best_index[plan.flows.index[keep]], plan.flows.mass[keep])
