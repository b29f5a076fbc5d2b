import tracemalloc

import numpy as np
import pytest

from oracles import (
    DenseLP,
    approx_transport_cost,
    assignment_best,
    fraction_simplex,
    highs_optimum,
    solve,
    transport_lp_arrays,
)
from wbary import master, simplex
from wbary.driver import SolveConfig, solve as solve_cg
from wbary.initial import two_approx
from wbary.model import DiscreteMeasure, Instance
from wbary.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    DenseColumns,
    Kernel,
    SparseColumns,
    UnitColumns,
    solve_columns,
)


def assignment_lp(costs3):
    """3x3 assignment polytope in equality form."""
    A = np.zeros((6, 9))
    for i in range(3):
        A[i, 3 * i : 3 * i + 3] = 1.0
        A[3 + i, i::3] = 1.0
    b = np.ones(6)
    return DenseLP(np.asarray(costs3, dtype=float).ravel(), A, b)


class TestBasics:
    def test_tiny_feasible(self):
        lp = DenseLP(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0)
        assert sol.x.sum() == pytest.approx(1.0)

    def test_unbounded(self):
        lp = DenseLP(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
        sol = solve(lp)
        assert sol.status == UNBOUNDED

    def test_infeasible(self):
        lp = DenseLP(
            np.array([1.0]), np.array([[1.0], [1.0]]), np.array([1.0, 2.0])
        )
        sol = solve(lp)
        assert sol.status == INFEASIBLE

    def test_negative_rhs_row(self):
        # -x1 = -1 is feasible at x1 = 1 after internal row sign handling.
        lp = DenseLP(np.array([1.0, 1.0]), np.array([[-1.0, 0.0]]), np.array([-1.0]))
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(1.0)

    def test_redundant_rows_tolerated(self):
        # Second row duplicates the first; artificial stays basic at zero.
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        lp = DenseLP(np.array([2.0, 3.0]), A, np.array([1.0, 1.0]))
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(2.0)


class TestAssignment:
    def test_three_by_three_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            costs = rng.integers(0, 20, size=(3, 3)).astype(float)
            sol = solve(assignment_lp(costs))
            assert sol.status == OPTIMAL
            assert abs(sol.objective - assignment_best(costs)) <= 1e-8


@pytest.fixture(scope="module")
def random_lps_with_exact_optima():
    """500 feasible random LPs with their exact statuses and objectives."""
    rng = np.random.default_rng(23)
    cases = []
    while len(cases) < 500:
        m = int(rng.integers(1, 11))
        k = int(rng.integers(m, 31))
        A = rng.integers(-3, 4, size=(m, k)).astype(float)
        x0 = np.zeros(k)
        support = rng.choice(k, size=min(m, k), replace=False)
        x0[support] = rng.integers(1, 5, size=len(support))
        b = A @ x0  # guarantees feasibility
        cost = rng.integers(-2, 9, size=k).astype(float)
        status, obj = fraction_simplex(cost.tolist(), A.tolist(), b.tolist())
        cases.append((cost, A, b, status, float(obj) if obj is not None else None))
    return cases


def assert_optimal_residuals(kern, cost, x, y):
    """An optimal return may keep rank-one updates in B^-1, but its solution
    must satisfy A x = b and its duals must price every column: basic reduced
    costs within OPT_TOL of zero and none below -OPT_TOL."""
    A = kern.cols.columns(np.arange(kern.cols.ncols))
    assert np.abs(A @ x - kern.b).max() <= 1e-9 * (1 + np.abs(kern.b).max())
    red = np.asarray(cost) - y @ A
    basic = kern.basic[kern.basic >= 0]
    assert np.abs(red[basic]).max(initial=0.0) <= simplex.OPT_TOL
    assert red.min(initial=0.0) >= -simplex.OPT_TOL


def column_by_column(kern):
    """The basis matrix built one basic code at a time: the provider's column,
    or for code -1-r the unit column of row r signed like its right-hand side."""
    B = np.zeros((kern.m, kern.m))
    for pos, code in enumerate(kern.basic):
        if code >= 0:
            B[:, pos] = kern.cols.columns(np.array([code]))[:, 0]
        else:
            B[-1 - code, pos] = kern.signs[-1 - code]
    return B


class TestBasisMatrix:
    @pytest.mark.parametrize("provider", ["dense", "unit"])
    def test_gathered_matches_column_by_column(self, provider):
        rng = np.random.default_rng(31)
        m, k = 6, 12
        if provider == "dense":
            cols = DenseColumns(rng.uniform(-1.0, 1.0, size=(m, k)))
        else:
            cols = UnitColumns(rng.integers(0, m, size=(2, k)), nrows=m)
        kern = Kernel(cols, rng.uniform(-1.0, 1.0, size=m))
        assert np.any(kern.signs < 0)
        # four structural columns in scrambled order, two signed artificials
        kern.basic = np.array([7, -3, 0, 11, -6, 4], dtype=np.int64)
        assert np.array_equal(kern.basis_matrix(), column_by_column(kern))


def check_against_exact(cases):
    for cost, A, b, status, obj in cases:
        kern = Kernel(DenseColumns(A), b)
        sol = solve_columns(kern, cost)
        assert sol.status == {"optimal": OPTIMAL, "unbounded": UNBOUNDED}[status]
        if status == "optimal":
            assert_optimal_residuals(kern, cost, sol.x, sol.duals)
            assert abs(sol.objective - obj) <= 1e-8 * (1 + abs(obj))
            assert np.linalg.norm(A @ sol.x - b, ord=np.inf) <= 1e-9 * (
                1 + np.abs(b).max()
            )


class TestRandomVsExactOracle:
    def test_500_random_instances(self, random_lps_with_exact_optima):
        check_against_exact(random_lps_with_exact_optima)

    def test_500_random_instances_inverting_every_pivot(
        self, random_lps_with_exact_optima, monkeypatch
    ):
        # Re-inverting after every pivot leaves no rank-one update standing at
        # any decision; the answers must not change.
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
        check_against_exact(random_lps_with_exact_optima)


class TestResidualsAtOptimum:
    def test_master_solves_of_a_deep_instance(self, monkeypatch):
        # `wbary gen --n 5 --size 8 --seed 0`, solved with the large pair;
        # the master's kernel is re-solved after every pricing.
        rng = np.random.default_rng(0)
        measures = tuple(DiscreteMeasure(rng.random((8, 2)), np.full(8, 1 / 8)) for _ in range(5))
        inst = Instance(measures, np.full(5, 1 / 5))
        original = master.solve_rm
        solves = []
        kept = []

        def checked(rm):
            out = original(rm)
            mu, y, sigma, _ = out
            duals = np.append(y, sigma)[rm._rows]
            assert_optimal_residuals(rm.kernel, rm.costs, mu, duals)
            solves.append(rm.last_pivots)
            kept.append(rm.kernel.updates)
            return out

        monkeypatch.setattr(master, "solve_rm", checked)
        res = solve_cg(inst, SolveConfig(pair_variant="large"))
        assert res.converged
        assert len(solves) == res.iterations > 50
        assert sum(solves) > simplex.REFACTOR_EVERY
        assert max(kept) > 0  # some optimum returned on an updated inverse


def count_inversions(monkeypatch):
    """Wrap Kernel._invert to count its calls; returns the counter list."""
    calls = []
    original = Kernel._invert

    def counted(kern):
        calls.append(kern)
        original(kern)

    monkeypatch.setattr(Kernel, "_invert", counted)
    return calls


def one_pivot_master():
    """A three-row master solved once, its inverse freshly inverted, with an
    appended column that prices in and leaves row 0 in one pivot."""
    A = np.eye(3)
    b = np.array([1.0, 2.0, 1.0])
    cost = np.ones(3)
    kern = Kernel(DenseColumns(A), b)
    assert solve_columns(kern, cost).status == OPTIMAL
    kern._invert()
    new = np.array([1.0, 1.0, 0.0])
    kern.cols.append(new)
    cost2 = np.append(cost, 0.5)
    return kern, cost2, np.column_stack([A, new]), b


class TestKeptInverse:
    def test_one_pivot_resolve_keeps_its_update(self, monkeypatch):
        kern, cost, A, b = one_pivot_master()
        calls = count_inversions(monkeypatch)
        sol = solve_columns(kern, cost)
        assert sol.status == OPTIMAL and sol.pivots == 1
        assert kern.updates == 1 and calls == []
        assert sol.objective == pytest.approx(highs_optimum(cost, A, b), abs=1e-12)
        assert_optimal_residuals(kern, cost, sol.x, sol.duals)

    def test_residual_check_catches_a_perturbed_inverse(self, monkeypatch):
        kern, cost, A, b = one_pivot_master()
        kern.Binv += 1e-6 * np.random.default_rng(3).uniform(0.5, 1.0, (3, 3))
        calls = count_inversions(monkeypatch)
        sol = solve_columns(kern, cost)
        assert sol.status == OPTIMAL and sol.pivots == 1
        assert len(calls) == 1 and kern.updates == 0
        assert sol.objective == pytest.approx(highs_optimum(cost, A, b), abs=1e-12)
        assert_optimal_residuals(kern, cost, sol.x, sol.duals)

    def test_small_pair_master_keeps_its_inverse(self, monkeypatch):
        # `[2, 2, 60]` with the small pair: a 61-row master re-solved after
        # every pricing, mostly in one to five pivots.
        rng = np.random.default_rng(12)
        measures = []
        for s in (2, 2, 60):
            u = rng.uniform(0.2, 1.0, s)
            measures.append(DiscreteMeasure(rng.random((s, 2)), u / u.sum()))
        u = rng.uniform(0.2, 1.0, 3)
        inst = Instance(tuple(measures), u / u.sum())
        kernels = []
        original = master.solve_rm

        def recorded(rm):
            kernels.append(rm.kernel)
            return original(rm)

        monkeypatch.setattr(master, "solve_rm", recorded)
        calls = count_inversions(monkeypatch)
        res = solve_cg(inst, SolveConfig(pair_variant="small"))
        assert res.converged
        master_inversions = sum(k is kernels[0] for k in calls)
        assert len(kernels) == res.iterations > 40
        assert 4 * master_inversions < len(kernels)


class TestProviderProducts:
    @pytest.mark.parametrize("provider", ["dense", "unit", "sparse"])
    def test_products_match_the_dense_matrix(self, provider):
        rng = np.random.default_rng(32)
        for _ in range(20):
            m, k = (int(v) for v in rng.integers(1, 12, size=2))
            if provider == "dense":
                keep = rng.random((m, k)) < 0.5
                dense = np.where(keep, rng.uniform(-2.0, 2.0, (m, k)), 0.0)
                cols = DenseColumns(dense)
            elif provider == "unit":
                rows = np.stack([rng.permutation(m)[: min(m, 3)] for _ in range(k)], 1)
                cols = UnitColumns(rows, nrows=m)
                dense = np.zeros((m, k))
                for j in range(k):
                    dense[rows[:, j], j] = 1.0
            else:
                indptr, rows, vals, dense = random_csc(rng, m, k)
                cols = SparseColumns(indptr, rows, vals, m)
            x = np.where(rng.random(k) < 0.5, rng.uniform(0.0, 2.0, k), 0.0)
            assert np.abs(cols.apply_x(x) - dense @ x).max() <= 1e-12
            Binv = rng.uniform(-1.0, 1.0, size=(m, m))
            for j in range(k):
                w = cols.direction(Binv, j)
                assert np.abs(w - Binv @ dense[:, j]).max() <= 1e-12


class TestDuality:
    def test_strong_duality_and_sign_of_reduced_costs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m, k = 4, 10
            A = rng.uniform(-1, 1, size=(m, k))
            x0 = np.abs(rng.uniform(0.1, 1, size=k))
            b = A @ x0
            cost = rng.uniform(0.1, 1.0, size=k)  # bounded below on x >= 0? not
            # generally, so accept either status but verify duality at optimal
            sol = solve(DenseLP(cost, A, b))
            if sol.status != OPTIMAL:
                continue
            assert abs(sol.objective - float(b @ sol.duals)) <= 1e-8 * (
                1 + abs(sol.objective)
            )
            red = cost - sol.duals @ A
            assert red.min() >= -1e-8


class TestWarmStart:
    def test_resolve_same_lp_zero_pivots(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(0.5, 1.5, size=(3, 8))
        x0 = np.abs(rng.uniform(0.1, 1.0, size=8))
        b = A @ x0
        cost = rng.uniform(0.0, 1.0, size=8)
        kern = Kernel(DenseColumns(A), b)
        first = solve_columns(kern, cost)
        assert first.status == OPTIMAL
        again = solve_columns(kern, cost)
        assert again.status == OPTIMAL
        assert again.pivots == 0
        assert again.objective == pytest.approx(first.objective)

    def test_warm_start_after_appending_column(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(0.5, 1.5, size=(3, 6))
        x0 = np.abs(rng.uniform(0.1, 1.0, size=6))
        b = A @ x0
        cost = rng.uniform(0.2, 1.0, size=6)
        kern = Kernel(DenseColumns(A), b)
        first = solve_columns(kern, cost)
        new = rng.uniform(0.5, 1.5, size=3)
        kern.cols.append(new)
        cost2 = np.append(cost, 0.01)  # attractive new column
        second = solve_columns(kern, cost2)
        assert second.status == OPTIMAL
        assert second.objective <= first.objective + 1e-12
        cold = solve(DenseLP(cost2, np.column_stack([A, new]), b))
        assert second.objective == pytest.approx(cold.objective, abs=1e-12)
        assert second.pivots == kern.pivots - first.pivots


class TestDenseColumns:
    def test_contiguous_matrix_is_not_copied(self):
        A = np.arange(6.0).reshape(2, 3)
        assert DenseColumns(A).A is A

    def test_append_doubles_the_store_and_keeps_a_view(self):
        cols = DenseColumns(np.empty((2, 0)))
        widths = []
        for j in range(5):
            cols.append(np.array([j, -j], dtype=float))
            widths.append(cols.store.shape[1])
        assert widths == [1, 2, 4, 4, 8]
        assert cols.ncols == 5 and np.shares_memory(cols.A, cols.store)
        assert np.array_equal(cols.A, [[0, 1, 2, 3, 4], [0, -1, -2, -3, -4]])
        y = np.array([2.0, 1.0])
        assert np.array_equal(cols.apply_yT(y), [0, 1, 2, 3, 4])


class TestDegenerate:
    def test_classic_cycling_instance_terminates(self):
        # Beale's cycling example (standard form with slacks appended);
        # known optimum -1/20 at x = (1/25, 0, 1, 0).
        A = np.array(
            [
                [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        cost = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        status, obj = fraction_simplex(cost.tolist(), A.tolist(), b.tolist())
        assert status == "optimal"
        assert float(obj) == pytest.approx(-0.05)
        sol = solve(DenseLP(cost, A, b))
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(float(obj), abs=1e-9)


class TestUnitColumns:
    def test_matches_dense_on_binary_structure(self):
        rng = np.random.default_rng(9)
        rows = np.array([[0, 0, 1, 1], [2, 3, 2, 3]])
        cols = UnitColumns(rows, nrows=4)
        dense = np.zeros((4, 4))
        for j in range(4):
            dense[rows[:, j], j] = 1.0
        cost = rng.uniform(0, 1, size=4)
        b = np.array([0.5, 0.5, 0.3, 0.7])
        s1 = solve_columns(Kernel(cols, b), cost)
        s2 = solve(DenseLP(cost, dense, b))
        assert s1.status == s2.status == OPTIMAL
        assert s1.objective == pytest.approx(s2.objective, abs=1e-10)
        y = rng.uniform(-1, 1, size=4)
        assert np.allclose(cols.apply_yT(y), y @ dense)


def relocation_lp(inst):
    """The 2-approximation's LP, built independently of wbary.initial.

    Variables y[i][s, j] (measure-major, then candidate s, then point j) move
    mass from candidate s, a distinct input point in order of first
    occurrence, to point j of measure i. Every candidate sends the same mass
    into each measure, and each point receives its own mass.
    """
    points = np.concatenate([m.points for m in inst.measures])
    _, first = np.unique(points, axis=0, return_index=True)
    cand = points[np.sort(first)]
    S = len(cand)
    sizes = inst.sizes
    cost = np.concatenate(
        [
            lam * ((cand[:, None, :] - m.points[None, :, :]) ** 2).sum(-1).ravel()
            for lam, m in zip(inst.lambdas, inst.measures)
        ]
    )
    n = len(sizes)
    outflow = [np.kron(np.eye(S), np.ones(s)) for s in sizes]  # (S, S * size)
    coupling = [
        np.hstack(
            [-outflow[0]]
            + [outflow[i] if i == t else np.zeros_like(outflow[i]) for i in range(1, n)]
        )
        for t in range(1, n)
    ]
    inflow = np.zeros((sum(sizes), cost.size))
    row = col = 0
    for s in sizes:
        inflow[row : row + s, col : col + S * s] = np.kron(np.ones(S), np.eye(s))
        row += s
        col += S * s
    A = np.vstack(coupling + [inflow])
    b = np.concatenate([np.zeros((n - 1) * S)] + [m.masses for m in inst.measures])
    return cost, A, b


def random_masses_instance(sizes, seed):
    """The instance `wbary gen --sizes ... --masses random --seed` writes."""
    rng = np.random.default_rng(seed)
    measures = []
    for s in sizes:
        points = rng.random((s, 2))
        u = rng.uniform(0.2, 1.0, s)
        measures.append(DiscreteMeasure(points, u / u.sum()))
    return Instance(tuple(measures), np.full(len(sizes), 1.0 / len(sizes)))


class TestLongRunsVsHighs:
    """LPs that need more than REFACTOR_EVERY pivots in one call, so both the
    rank-one updates and the periodic re-inversion take part."""

    @pytest.mark.parametrize("m,k,seed", [(50, 50, 0), (60, 45, 1), (70, 70, 2)])
    def test_degenerate_uniform_transport(self, m, k, seed):
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 10, size=(m, k)).astype(float)  # many ties
        c, A, b = transport_lp_arrays(np.full(m, 1.0 / m), np.full(k, 1.0 / k), costs)
        sol = solve(DenseLP(c, A, b))
        assert sol.status == OPTIMAL
        assert sol.pivots > simplex.REFACTOR_EVERY
        ref = highs_optimum(c, A, b)
        assert abs(sol.objective - ref) <= 1e-9 * (1 + abs(ref))
        assert np.abs(A @ sol.x - b).max() <= 1e-12

    @pytest.mark.parametrize("sizes", [(8, 6, 5, 4, 3, 3, 3), (10, 8, 6, 5, 4, 3, 3)])
    def test_relocation_lp_of_mixed_instances(self, sizes):
        inst = random_masses_instance(sizes, 0)
        c, A, b = relocation_lp(inst)
        sol = solve(DenseLP(c, A, b))
        assert sol.status == OPTIMAL
        assert sol.pivots > simplex.REFACTOR_EVERY
        ref = highs_optimum(c, A, b)
        assert abs(sol.objective - ref) <= 1e-9 * (1 + abs(ref))
        assert abs(approx_transport_cost(two_approx(inst), inst) - ref) <= 1e-9 * (1 + abs(ref))


def random_csc(rng, nrows, ncols):
    """CSC arrays of a random matrix with some empty columns, and the matrix."""
    dense = np.zeros((nrows, ncols))
    indptr, rows, vals = [0], [], []
    for j in range(ncols):
        nnz = 0 if rng.random() < 0.2 else int(rng.integers(1, nrows + 1))
        r = np.sort(rng.choice(nrows, size=nnz, replace=False))
        v = rng.uniform(-2.0, 2.0, size=nnz)
        dense[r, j] = v
        rows.extend(r)
        vals.extend(v)
        indptr.append(len(rows))
    return np.array(indptr), np.array(rows, dtype=np.int64), np.array(vals), dense


def shared_points_instance(rng):
    """Measures drawing their points from one small pool, so candidates repeat."""
    pool = rng.random((int(rng.integers(4, 8)), 2))
    measures = []
    for _ in range(int(rng.integers(3, 5))):
        pts = pool[rng.choice(len(pool), size=int(rng.integers(2, 5)), replace=False)]
        u = rng.uniform(0.2, 1.0, len(pts))
        measures.append(DiscreteMeasure(pts, u / u.sum()))
    return Instance(tuple(measures), np.full(len(measures), 1.0 / len(measures)))


def relocation_kernel(inst, monkeypatch):
    """The kernel two_approx solves, with its cost vector."""
    seen = []

    def record(kern, cost):
        seen.append((kern, np.asarray(cost)))
        return solve_columns(kern, cost)

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "solve_columns", record)
        two_approx(inst)
    (found,) = seen
    return found


class TestSparseColumns:
    def test_matches_dense_on_random_data(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            nrows, ncols = (int(v) for v in rng.integers(1, 12, size=2))
            indptr, rows, vals, dense = random_csc(rng, nrows, ncols)
            cols = SparseColumns(indptr, rows, vals, nrows)
            for j in range(ncols):
                assert np.array_equal(cols.columns(np.array([j]))[:, 0], dense[:, j])
            js = rng.integers(0, ncols, size=int(rng.integers(0, 2 * ncols)))
            assert np.array_equal(cols.columns(js), dense[:, js])
            y = rng.uniform(-1.0, 1.0, size=nrows)
            assert np.abs(cols.apply_yT(y) - y @ dense).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("sizes", [(8, 6, 5, 4, 3, 3, 3), (10, 8, 6, 5, 4, 3, 3)])
    def test_relocation_provider_equals_independent_matrix(self, sizes, monkeypatch):
        inst = random_masses_instance(sizes, 0)
        kern, cost = relocation_kernel(inst, monkeypatch)
        c, A, b = relocation_lp(inst)
        assert isinstance(kern.cols, SparseColumns)
        assert kern.cols.nrows == A.shape[0] and kern.cols.ncols == A.shape[1]
        for j in range(A.shape[1]):
            assert np.array_equal(kern.cols.columns(np.array([j]))[:, 0], A[:, j])
        assert np.array_equal(kern.cols.columns(np.arange(A.shape[1])), A)
        assert np.array_equal(cost, c)
        assert np.array_equal(kern.b, b)

    def test_shared_points_match_highs(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            inst = shared_points_instance(rng)
            points = np.concatenate([m.points for m in inst.measures])
            assert len(np.unique(points, axis=0)) < len(points)
            c, A, b = relocation_lp(inst)
            ref = highs_optimum(c, A, b)
            cost = approx_transport_cost(two_approx(inst), inst)
            assert abs(cost - ref) <= 1e-9 * (1 + abs(ref))


class TestRankOneUpdate:
    def test_rows_only_update_equals_full_update(self):
        rng = np.random.default_rng(23)
        for m in (1, 5, 22, 60):
            Binv = rng.uniform(-1.0, 1.0, size=(m, m))
            w = np.where(rng.random(m) < 0.3, rng.uniform(-1.0, 1.0, size=m), 0.0)
            w[0] = 0.5
            row = rng.uniform(-1.0, 1.0, size=m)
            full = Binv - np.outer(w, row)
            rows_only = Binv.copy()
            touched = np.flatnonzero(w)
            rows_only[touched] -= np.outer(w[touched], row)
            assert np.array_equal(full + 0.0, rows_only + 0.0)

    def test_relocation_lp_peak_memory(self):
        # the dense constraint matrix alone would be 273 x 1521 doubles, 3.3 MB
        inst = random_masses_instance((10, 8, 6, 5, 4, 3, 3), 0)
        tracemalloc.start()
        try:
            two_approx(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_reinversion_frees_the_old_inverse(self):
        m = 300
        rng = np.random.default_rng(24)
        A = rng.uniform(-1.0, 1.0, size=(m, m)) + m * np.eye(m)
        kern = Kernel(DenseColumns(A), np.ones(m))
        kern.basic = np.arange(m)
        tracemalloc.start()
        try:
            kern._invert()  # the inverse the second call replaces, traced
            tracemalloc.reset_peak()
            kern._invert()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # B and its inverse; the old inverse beside them would make three
        assert peak < 2.5 * 8 * m * m
