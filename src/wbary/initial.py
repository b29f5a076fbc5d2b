"""Feasible starting vertices for the column generation routes.

The greedy start sweeps the measures' masses by minimum remaining mass: a
pointer walks each measure's masses, and each step places the smallest entry
at the pointers on their combination. That yields a vertex of the full
transport polytope with a small support.

The 2-approximation (Borgwardt) solves a relocation LP whose support is
restricted to the union of the input support points; its cost is at most
twice optimal. The LP is solved in the combination form of Anderes,
Borgwardt & Miller (2016) by column generation (``simplex.generate``). A
column pairs a candidate s with one point j_i per measure, costs
sum_i lambda_i |s - x_i(j_i)|^2 and holds a 1 in each of those points'
marginal rows: a ``simplex.UnitColumns`` column. The LP's dual feasible set
is {v : sum_i max_j (v_i(j) - lambda_i |s - x_i(j)|^2) <= 0 for every s},
and pricing is exact and separable: one argmin per measure for each
candidate.

The LP's basic columns are linearly independent, so no two of them hold the
same combination, and they meet the marginal rows of the full barycenter LP.
Giving each such combination its column's mass is therefore a vertex of the
full LP, the start both routes take, and it costs no more than the
relocation LP: a combination's weighted mean is its cheapest support point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import MASS_TOL, Instance, Plan, digits


def greedy_vertex(inst: Instance) -> Plan:
    """Feasible vertex built by the minimum-remaining-mass sweep, as a plan
    in placement order.

    Each pointer skips masses at most MASS_TOL but never passes its measure's
    last point; each step places the smallest mass at the pointers on their
    combination. The sweep stops once 1 - MASS_TOL is placed, or when that
    smallest mass is at most MASS_TOL (sub-tolerance drift of the masses).
    The support size L always satisfies max_i |P_i| <= L <= sum_i |P_i| - n + 1
    and the chosen columns are linearly independent.
    """
    remaining = [m.masses.astype(float) for m in inst.measures]
    pointers = [0] * len(remaining)
    index, masses = [], []
    placed = 0.0
    while placed < 1.0 - MASS_TOL:
        for i, r in enumerate(remaining):
            while r[pointers[i]] <= MASS_TOL and pointers[i] + 1 < len(r):
                pointers[i] += 1
        mass = min(r[p] for r, p in zip(remaining, pointers))
        if mass <= MASS_TOL:
            break
        index.append(int(np.ravel_multi_index(pointers, inst.sizes)))
        masses.append(mass)
        placed += mass
        for r, p in zip(remaining, pointers):
            r[p] -= mass
    return Plan(np.array(index, dtype=np.int64), np.array(masses))


@dataclass
class ApproxBarycenter:
    """The relocation LP's optimum, a measure supported on input points.

    Column k sends ``mass[k]`` from candidate ``support[owner[k]]`` to the
    points of combination ``index[k]``, one per measure; the columns are
    those above MASS_TOL, in ascending combination order, and no two share
    a combination. ``duals`` are the LP's duals of the marginal rows, one
    per point of each measure in measure order: a dual point to price at
    before the first master solve.
    """

    support: np.ndarray  # (S, dim) candidate points
    duals: np.ndarray  # (sum of sizes,)
    owner: np.ndarray  # (k,) candidate of each column
    index: np.ndarray  # (k,) int64 flat combination, ascending
    mass: np.ndarray  # (k,)


def _candidate_points(inst: Instance) -> np.ndarray:
    """Union of all input support points, first occurrence kept."""
    seen = {}
    for m in inst.measures:
        for p in m.points:
            key = p.tobytes()
            if key not in seen:
                seen[key] = p
    return np.array(list(seen.values()))


def relocation_bytes(sizes) -> int:
    """Bytes of array data two_approx allocates for the relocation LP of
    measures with these sizes, over at most S = sum(sizes) candidate points.

    Counted: the S x S cost table, a candidate-by-point block of pricing
    temporaries, the simplex basis over S rows, and the column store
    (``simplex.unit_store_bytes``, with the owner array in place of an
    index). The store is charged for S * S columns, as many as the transport
    form has variables; that charge also covers the costs of the greedy
    vertex's at most S combinations at every candidate, gathered before the
    store exists. Nothing bounds the number of pricing passes, so the charge
    does not bound a run that generates more columns.
    """
    n, S = len(sizes), sum(sizes)
    return (
        8 * S * S + 16 * S * max(sizes) + simplex.kernel_bytes(S)
        + simplex.unit_store_bytes(n, S * S)
    )


def _price(table: np.ndarray, duals: np.ndarray, offsets) -> tuple[np.ndarray, ...]:
    """Each candidate's cheapest column at these duals: its rows, one per
    measure as an (n, S) array, and its reduced cost, summed in measure order."""
    picks = []
    reduced = np.zeros(table.shape[0])
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        r = table[:, lo:hi] - duals[lo:hi]
        picks.append(lo + r.argmin(axis=1))
        reduced += r.min(axis=1)
    return np.array(picks), reduced


def two_approx(inst: Instance) -> ApproxBarycenter:
    """Best measure supported on the union of input points, with transport.

    Starts from the greedy vertex's combinations, each at its cheapest
    candidate, which is feasible, and runs ``simplex.generate``: each pass
    appends every candidate whose cheapest column prices in below -OPT_TOL.
    """
    cand = _candidate_points(inst)
    offsets = np.asarray(inst.strides.row_offsets)
    # table[s, offsets[i] + j] = lambda_i |cand_s - x_i(j)|^2
    blocks = []
    for lam, m in zip(inst.lambdas, inst.measures):
        d = cand[:, None, :] - m.points[None, :, :]
        blocks.append(lam * np.einsum("sjk,sjk->sj", d, d))
    table = np.concatenate(blocks, axis=1)

    rows = digits(greedy_vertex(inst).index, inst.strides) + offsets[:-1, None]
    at_each = table[:, rows].sum(axis=1)  # (S, k), summed in measure order
    owner = at_each.argmin(axis=0)
    costs = at_each[owner, np.arange(rows.shape[1])]
    rhs = np.concatenate([m.masses for m in inst.measures])
    kern = simplex.Kernel(simplex.UnitColumns(rows, nrows=rhs.size), rhs)

    def price(sol):
        nonlocal owner
        picks, reduced = _price(table, sol.duals, offsets)
        enter = np.flatnonzero(reduced < -simplex.OPT_TOL)
        if not enter.size:
            return None
        new = picks[:, enter]
        owner = np.concatenate((owner, enter))
        return new, table[enter, new].sum(axis=0)

    sol, _ = simplex.generate(kern, costs, price)
    used = np.flatnonzero(sol.x > MASS_TOL)
    index = np.ravel_multi_index(
        tuple(kern.cols.rows[:, used] - offsets[:-1, None]), inst.sizes
    )
    order = np.argsort(index)
    used = used[order]
    return ApproxBarycenter(cand, sol.duals, owner[used], index[order], sol.x[used])


def repair_to_vertex(apx: ApproxBarycenter, inst: Instance) -> Plan:
    """The start of column generation from the relocation LP: each of its
    columns' combinations with the column's mass, a vertex of the full LP of
    inst that costs no more than the relocation LP."""
    return Plan(apx.index, apx.mass)
