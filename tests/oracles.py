"""Independent reference solvers used only to validate the fast paths.

Everything here favors transparency over speed: exact rational arithmetic,
Bland's rule, and brute-force enumeration. Larger LPs go to HiGHS through
scipy.optimize.linprog. None of it shares code with the package under test,
except DenseLP and solve at the end: they run the package's simplex kernel on
an explicit dense matrix, so tests can pose it small LPs directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from wbary.simplex import DenseColumns, Kernel, LPSolution, solve_columns


def fraction_simplex(cost, A, b):
    """Exact two-phase simplex (Bland's rule) over rationals.

    Returns ('optimal', objective as Fraction), ('infeasible', None) or
    ('unbounded', None) for  min cost @ x, A x = b, x >= 0.
    """
    m = len(b)
    k = len(cost)
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    cost = [Fraction(x) for x in cost]
    for r in range(m):
        if b[r] < 0:
            b[r] = -b[r]
            A[r] = [-x for x in A[r]]
    # Tableau with artificial columns k..k+m-1.
    tab = [row[:] + [Fraction(int(i == r)) for i in range(m)] + [b[r]] for r, row in enumerate(A)]
    basis = list(range(k, k + m))

    def pivot(tab, basis, pr, pc):
        piv = tab[pr][pc]
        tab[pr] = [x / piv for x in tab[pr]]
        for r in range(len(tab)):
            if r != pr and tab[r][pc] != 0:
                f = tab[r][pc]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[pr])]
        basis[pr] = pc

    def optimize(tab, basis, cvec, allowed):
        while True:
            # reduced costs via basis costs: z_j = sum over rows of c_B * tab
            red = []
            for j in allowed:
                zj = sum(cvec[basis[r]] * tab[r][j] for r in range(len(tab)))
                red.append((cvec[j] - zj, j))
            entering = None
            for rc, j in red:
                if rc < 0:
                    entering = j
                    break  # Bland: lowest index
            if entering is None:
                return "optimal"
            ratios = [
                (tab[r][-1] / tab[r][entering], basis[r], r)
                for r in range(len(tab))
                if tab[r][entering] > 0
            ]
            if not ratios:
                return "unbounded"
            _, _, pr = min(ratios, key=lambda t: (t[0], t[1]))
            pivot(tab, basis, pr, entering)

    full_cost = [Fraction(0)] * k + [Fraction(1)] * m
    optimize(tab, basis, full_cost, list(range(k + m)))
    phase1 = sum(full_cost[basis[r]] * tab[r][-1] for r in range(m))
    if phase1 != 0:
        return "infeasible", None
    full_cost = cost + [Fraction(0)] * m
    status = optimize(tab, basis, full_cost, list(range(k)))
    if status == "unbounded":
        return "unbounded", None
    obj = sum(full_cost[basis[r]] * tab[r][-1] for r in range(m))
    return "optimal", obj


def enumerate_vertices(A, b, atol=1e-9):
    """All basic feasible solutions of A x = b, x >= 0, by column subsets."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = A.shape
    rank = np.linalg.matrix_rank(A)
    verts = []
    for cols in combinations(range(k), rank):
        sub = A[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        x_sub, res, _, _ = np.linalg.lstsq(sub, b, rcond=None)
        if np.linalg.norm(A[:, cols] @ x_sub - b) > atol:
            continue
        if x_sub.min() < -atol:
            continue
        x = np.zeros(k)
        x[list(cols)] = np.clip(x_sub, 0.0, None)
        verts.append(x)
    return verts


def min_over_vertices(cost, A, b, atol=1e-9):
    """Exhaustive-vertex optimum of min cost @ x, A x = b, x >= 0."""
    verts = enumerate_vertices(A, b, atol)
    assert verts, "polytope unexpectedly empty"
    return min(float(np.dot(cost, v)) for v in verts)


def transport_lp_arrays(supplies, demands, costs):
    """Equality-form LP arrays for a transportation problem."""
    m, k = len(supplies), len(demands)
    A = np.zeros((m + k, m * k))
    for i in range(m):
        A[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        A[m + j, j::k] = 1.0
    b = np.concatenate([supplies, demands])
    c = np.asarray(costs, dtype=float).ravel()
    return c, A, b


def assignment_best(costs3):
    """Exact optimum of a 3x3 assignment problem by enumerating permutations."""
    best = np.inf
    for perm in permutations(range(3)):
        best = min(best, sum(costs3[i][perm[i]] for i in range(3)))
    return best


def highs_optimum(cost, A, b):
    """Optimum of min cost @ x, A x = b, x >= 0 from HiGHS; A may be sparse."""
    from scipy.optimize import linprog

    res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def barycenter_lp_arrays(points, masses, weights):
    """Full barycenter LP: one column per combination, one row per point.

    The cost of a combination is the weighted squared distance of its points
    to their weighted mean. Returns (cost, sparse A, b).
    """
    from scipy.sparse import csc_matrix

    sizes = [len(m) for m in masses]
    n = len(sizes)
    digits = np.indices(sizes).reshape(n, -1)
    total = digits.shape[1]
    mean = sum(weights[i] * points[i][digits[i]] for i in range(n))
    cost = np.zeros(total)
    for i in range(n):
        d = points[i][digits[i]] - mean
        cost += weights[i] * np.einsum("kd,kd->k", d, d)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = (digits + offsets[:-1, None]).T.ravel()
    cols = np.repeat(np.arange(total), n)
    A = csc_matrix((np.ones(rows.size), (rows, cols)), shape=(offsets[-1], total))
    return cost, A, np.concatenate(masses)


def digits_of(h, sizes):
    """Point index per measure of flat combination h (last measure fastest)."""
    if not 0 <= h < int(np.prod(sizes)):
        raise IndexError(f"combination index {h} out of range")
    return tuple(int(j) for j in np.unravel_index(h, tuple(sizes)))


def combination_cost(assignment, points, weights):
    """Weighted squared distance of one point per measure to their weighted
    mean, in two scalar passes; ``points[i][assignment[i]]`` is measure i's."""
    chosen = [np.asarray(points[i][j], dtype=float) for i, j in enumerate(assignment)]
    mean = sum(weights[i] * x for i, x in enumerate(chosen))
    cost = 0.0
    for i, x in enumerate(chosen):
        cost += float(weights[i]) * float(np.sum((x - mean) ** 2))
    return cost


def column_support(h, strides):
    """Rows holding a one in column h of the full constraint matrix, one per
    measure block, in increasing order."""
    sizes = strides.sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return tuple(int(offsets[i] + j) for i, j in enumerate(digits_of(h, sizes)))


def plan_items(w):
    """A plan's (combination, mass) pairs in ascending combination order."""
    return sorted(zip(w.index.tolist(), w.mass.tolist()))


def marginal_residual(w, inst, strides):
    """Largest violation of the per-point mass balance over all measures."""
    sums = [np.zeros(m.size) for m in inst.measures]
    for h, mass in plan_items(w):
        for i, j in enumerate(digits_of(h, strides.sizes)):
            sums[i][j] += mass
    return max(float(np.abs(s - m.masses).max()) for s, m in zip(sums, inst.measures))


def satisfies_marginals(w, inst, strides, tol=1e-9):
    """True when the plan transports each measure exactly."""
    return marginal_residual(w, inst, strides) <= tol


def approx_transport_cost(apx, inst):
    """Weighted transport cost of a 2-approximation's plans into every measure."""
    cost = 0.0
    for i, plan in enumerate(apx.plans):
        pts = inst.measures[i].points
        for s, row in enumerate(plan):
            for j, q in enumerate(row):
                diff = apx.support[s] - pts[j]
                cost += inst.lambdas[i] * q * float(diff @ diff)
    return cost


def brute_force_pricing(inst_perm, y, exact=False):
    """Per pair pattern u, the minimum over its combinations h of cost(h) minus
    the duals y of h's trailing digits, and the lowest h attaining it.

    The pricing pair is measures 0 and 1 of ``inst_perm``; y holds one dual per
    point of the measures after them. Each cost is the weighted squared
    distance of h's points to their weighted mean, from the raw points; with
    ``exact`` every value is a Fraction, so ties are exact.
    """
    num = Fraction if exact else float
    sizes = [m.size for m in inst_perm.measures]
    dim = inst_perm.measures[0].points.shape[1]
    lam = [num(float(x)) for x in inst_perm.lambdas]
    pts = [[[num(float(c)) for c in p] for p in m.points] for m in inst_perm.measures]
    duals = [num(float(v)) for v in y]
    offsets = np.concatenate([[0], np.cumsum(sizes[2:])])
    n_unique = sizes[0] * sizes[1]
    n_dup = int(np.prod(sizes)) // n_unique
    best, index = [], []
    for u in range(n_unique):
        values = []
        for h in range(u * n_dup, (u + 1) * n_dup):
            d = digits_of(h, sizes)
            chosen = [pts[i][j] for i, j in enumerate(d)]
            mean = [sum(lam[i] * x[k] for i, x in enumerate(chosen)) for k in range(dim)]
            cost = sum(
                lam[i] * sum((x[k] - mean[k]) ** 2 for k in range(dim))
                for i, x in enumerate(chosen)
            )
            credit = sum(duals[offsets[t - 2] + d[t]] for t in range(2, len(d)))
            values.append(cost - credit)
        low = min(values)
        best.append(low)
        index.append(u * n_dup + values.index(low))
    return best, index


@dataclass
class DenseLP:
    """Equality-form LP data: min cost @ x, A @ x = rhs, x >= 0."""

    cost: np.ndarray
    A: np.ndarray
    rhs: np.ndarray


def solve(lp: DenseLP) -> LPSolution:
    """Solve a dense equality-form LP with the package's simplex kernel."""
    return solve_columns(Kernel(DenseColumns(lp.A), lp.rhs), lp.cost)
