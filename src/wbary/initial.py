"""Feasible starting vertices for the restricted master problem.

Both constructions end in one minimum-remaining-mass sweep: a pointer walks
each of n nonnegative vectors, and each step places the smallest entry at the
pointers on their combination. The greedy start sweeps the measures' masses,
which yields a vertex of the full transport polytope with a small support.
The 2-approximation first solves a relocation LP whose support is restricted
to the union of the input support points (its cost is at most twice optimal)
and hands over its plans, one (S, |P_i|) array per measure; the repair then
sweeps each support point's plan rows, splitting its mass into combinations
that send their whole mass to one point per measure.

The relocation LP is solved in its combination form by column generation
(``simplex.generate``).
A column pairs a candidate s with one point j_i per measure, costs
sum_i lambda_i |s - x_i(j_i)|^2 and holds a 1 in each of those points'
marginal rows: a ``simplex.UnitColumns`` column. Splitting each candidate's
plan rows into combinations maps the transport form's plans onto these
columns, and both forms have the dual feasible set {v : sum_i max_j (v_i(j)
- lambda_i |s - x_i(j)|^2) <= 0 for every s}, so they share their optimum and
the duals of the marginal rows. Pricing is exact and separable: one argmin
per measure for each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import MASS_TOL, ContractError, Instance, Plan, digits


def _sweep(rows, sizes: tuple[int, ...]) -> Plan:
    """The minimum-remaining-mass sweep of each (vectors, total) in rows, with
    one vector per measure, as one plan in first-placement order.

    Each pointer skips entries at most MASS_TOL but never passes its vector's
    last entry; each step places the smallest entry at the pointers on their
    combination. A row's sweep stops once total - MASS_TOL is placed, or when
    that smallest entry is at most MASS_TOL (sub-tolerance drift from LP
    rounding). A combination placed twice holds the sum of both masses.
    """
    w: dict[int, float] = {}
    for vectors, total in rows:
        remaining = [np.array(v, dtype=float) for v in vectors]
        pointers = [0] * len(remaining)
        placed = 0.0
        while placed < total - MASS_TOL:
            for i, r in enumerate(remaining):
                while r[pointers[i]] <= MASS_TOL and pointers[i] + 1 < len(r):
                    pointers[i] += 1
            mass = min(r[p] for r, p in zip(remaining, pointers))
            if mass <= MASS_TOL:
                break
            h = int(np.ravel_multi_index(pointers, sizes))
            w[h] = w.get(h, 0.0) + mass
            placed += mass
            for r, p in zip(remaining, pointers):
                r[p] -= mass
    return Plan(np.array(list(w), dtype=np.int64), np.array(list(w.values())))


def greedy_vertex(inst: Instance) -> Plan:
    """Feasible vertex built by the minimum-remaining-mass sweep.

    The support size L always satisfies max_i |P_i| <= L <= sum_i |P_i| - n + 1
    and the chosen columns are linearly independent.
    """
    return _sweep([([m.masses for m in inst.measures], 1.0)], inst.sizes)


@dataclass
class ApproxBarycenter:
    """A feasible measure supported on the original input points.

    ``plans[i][s, j]`` is the mass support point s sends to point j of
    measure i; each plan's rows sum to ``mass`` and its columns to that
    measure's masses. two_approx also keeps the relocation LP's duals of the
    marginal rows, one per point of each measure in measure order: a dual
    point to price at before the first master solve. Its ``plan`` gives each
    combination the total mass of the relocation LP's columns over it: a
    feasible plan of the full LP that costs no more, since a combination's
    weighted mean is its cheapest support point.
    """

    support: np.ndarray  # (S, dim)
    mass: np.ndarray  # (S,)
    plans: list[np.ndarray]  # one (S, size_i) array per measure
    duals: np.ndarray | None = None  # (sum of sizes,)
    plan: Plan | None = None

    def validate(self, inst: Instance):
        tol = 1e-9
        if abs(self.mass.sum() - 1.0) > tol:
            raise ContractError("approximate barycenter mass does not sum to 1")
        if [p.shape for p in self.plans] != [(len(self.mass), s) for s in inst.sizes]:
            raise ContractError("plans do not match the support and the measures")
        for i, (plan, m) in enumerate(zip(self.plans, inst.measures)):
            out = plan.sum(axis=1)
            bad = np.flatnonzero(np.abs(out - self.mass) > tol)
            if bad.size:
                s = bad[0]
                raise ContractError(
                    f"support point {s} sends {out[s]} into measure {i}, "
                    f"holds {self.mass[s]}"
                )
            if np.abs(plan.sum(axis=0) - m.masses).max() > tol:
                raise ContractError(f"measure {i} marginals violated")


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

    Counted: the S x S cost table and plans, a candidate-by-point block of
    pricing temporaries, the simplex basis over S rows, and the column store
    (``simplex.unit_store_bytes``, with the owner array in place of an
    index). The store is charged for S * S columns, as many as the transport
    form has variables. Nothing bounds the number of pricing passes, so the
    charge does not bound a run that generates more columns.
    """
    n, S = len(sizes), sum(sizes)
    return (
        16 * S * S + 16 * S * max(sizes) + simplex.kernel_bytes(S)
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
    flows = np.zeros_like(table)  # flows[s, offsets[i] + j]: s to point j of i
    np.add.at(flows, (owner, kern.cols.rows), sol.x)
    mass = np.bincount(owner, weights=sol.x, minlength=len(cand))
    keep = np.flatnonzero(mass > MASS_TOL)
    plans = np.split(flows[keep], offsets[1:-1], axis=1)
    # each combination's columns above MASS_TOL, merged
    used = sol.x > MASS_TOL
    combos = np.ravel_multi_index(
        tuple(kern.cols.rows[:, used] - offsets[:-1, None]), inst.sizes
    )
    index, merged = np.unique(combos, return_inverse=True)
    plan = Plan(index, np.bincount(merged, weights=sol.x[used]))
    return ApproxBarycenter(cand[keep], mass[keep], plans, sol.duals, plan)


def repair_to_vertex(apx: ApproxBarycenter, inst: Instance) -> Plan:
    """Split each approximate support point into whole-mass combinations.

    Sweeps every support point's plan rows, lowest point index first in each
    measure; the mass of each step lands at the weighted mean of its
    combination, which never increases the transport cost.
    """
    apx.validate(inst)
    return _sweep(zip(zip(*apx.plans), apx.mass), inst.sizes)
