"""Reduced-cost bookkeeping and the transportation-shaped pricing step.

The constraint rows of exactly two measures are delegated to pricing. With
those two measures permuted to the front, combination h = u * n_duplicates + d
pairs a distinct pair-row pattern u ("unique column") with a duplicate index
d. Its reduced cost is costs[h] minus the master duals of d's digits, a sum
that depends on d alone, so the per-pattern minima take one blockwise pass
over costs.reshape(n_unique, n_duplicates) - dual_sum. Arranged as a matrix
over the two measures' points, they form a balanced transportation problem.

The only exponentially sized state is the cost vector plus an
n_duplicates-length dual sum. The dual sum is rebuilt from the priced duals
at every pricing, one strided view per master row, so the constraint matrix
is never stored and no rounding carries over from one pricing to the next.
The duals are whatever the driver prices at (smoothed, or the master duals);
solve_pricing returns the transport objective alone, and the driver adds the
dual terms it needs for reduced costs and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import Instance, SparseMass, Strides, cost_vector
from .transport import TransportationProblem, TransportPlan, solve_transportation


@dataclass(frozen=True)
class Partition:
    """Assignment of two measures to pricing, as a permutation of the input."""

    pair: tuple[int, int]  # original positions of the pricing measures
    perm: tuple[int, ...]  # permuted order: pair first, the rest in input order
    n_unique: int  # product of the pair's sizes
    n_duplicates: int  # product of all other sizes


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
    perm = pair + rest
    n_unique = sizes[pair[0]] * sizes[pair[1]]
    return Partition(pair, perm, n_unique, math.prod(sizes) // n_unique)


@dataclass
class PricingState:
    """Dense pricing data over the permuted combination space."""

    costs: np.ndarray  # (N,) transport cost of every combination
    dual_sum: np.ndarray  # (n_duplicates,) master duals over each d's digits
    best: np.ndarray  # (n_unique,) minimum reduced cost per unique column
    best_index: np.ndarray  # (n_unique,) flat index attaining each minimum


def init_reduced_costs(
    inst_perm: Instance,
    partition: Partition,
    strides_perm: Strides,
) -> PricingState:
    """Allocate the cost vector and the dual sum (duals start at zero).

    With the per-pattern minima, these are the combination-length arrays that
    SolveResult.peak_memory_bytes counts. solve checks the 8 * N bytes of the
    cost vector against its cap before calling this.
    """
    state = PricingState(
        costs=cost_vector(inst_perm, strides_perm),
        dual_sum=np.zeros(partition.n_duplicates),
        best=np.empty(partition.n_unique),
        best_index=np.empty(partition.n_unique, dtype=np.int64),
    )
    best_costs(state, partition)
    return state


def update_reduced_costs(
    state: PricingState,
    y_old: np.ndarray,
    y_new: np.ndarray,
    partition: Partition,
    strides_perm: Strides,
):
    """Add y_new - y_old to the dual sum, one strided view per changed row.

    Row j of master measure t holds the dual of the entries whose digit t is
    j: a strided (outer, inner) slice of the dual sum.
    """
    offset = 0
    for t in range(2, len(strides_perm.sizes)):
        size = strides_perm.sizes[t]
        inner = strides_perm.suffix_products[t]
        view = state.dual_sum.reshape(-1, size, inner)
        for j in range(size):
            delta = y_new[offset + j] - y_old[offset + j]
            if delta != 0.0:
                view[:, j, :] += delta
        offset += size


def recompute_reduced_costs(
    state: PricingState,
    y: np.ndarray,
    partition: Partition,
    strides_perm: Strides,
):
    """Rebuild the dual sum at duals y; the driver does so at every pricing."""
    state.dual_sum.fill(0.0)
    update_reduced_costs(state, np.zeros_like(y), y, partition, strides_perm)


def best_costs(state: PricingState, partition: Partition):
    """Per unique column, the minimum reduced cost among its duplicates.

    With the pair leading the permutation, unique column u owns the
    contiguous index range [u * n_duplicates, (u+1) * n_duplicates). The pass
    runs over tiles of at most model.BLOCK entries; a later tile replaces a
    row's minimum only when strictly lower, so ties go to the lowest index.
    """
    n_u, n_d = partition.n_unique, partition.n_duplicates
    grid = state.costs.reshape(n_u, n_d)
    n_rows = max(1, model.BLOCK // n_d)
    width = min(n_d, model.BLOCK)
    state.best.fill(np.inf)
    for r0 in range(0, n_u, n_rows):
        r1 = min(r0 + n_rows, n_u)
        best, best_index = state.best[r0:r1], state.best_index[r0:r1]
        rows = np.arange(r1 - r0, dtype=np.int64)
        for c0 in range(0, n_d, width):
            tile = grid[r0:r1, c0 : c0 + width] - state.dual_sum[c0 : c0 + width]
            local = np.argmin(tile, axis=1)  # first minimum, so lowest index
            value = tile[rows, local]
            lower = value < best
            best[lower] = value[lower]
            best_index[lower] = ((r0 + rows) * n_d + c0 + local)[lower]


def solve_pricing(
    state: PricingState,
    partition: Partition,
    supplies: np.ndarray,
    demands: np.ndarray,
) -> tuple[float, TransportPlan]:
    """Minimize the compressed reduced costs over the pair's transport polytope.

    The objective is min over columns p of (c_p - duals . A_p) at the duals
    the dual sum holds, without the convexity dual.
    """
    size_a = len(supplies)
    size_b = len(demands)
    costs = state.best.reshape(size_a, size_b)
    plan = solve_transportation(TransportationProblem(supplies, demands, costs))
    return plan.objective, plan


def expand_column(plan: TransportPlan, state: PricingState, size_b: int) -> SparseMass:
    """Lift a transport plan back to full-space combination indices."""
    p = SparseMass()
    for i, j, q in plan.flows:
        h = int(state.best_index[i * size_b + j])
        p.add(h, q)
    return p
