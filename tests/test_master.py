import numpy as np
import pytest

from oracles import plan_items, satisfies_marginals
from wbary import master, simplex
from wbary.driver import SolveConfig, solve, solve_direct
from wbary.initial import greedy_vertex
from wbary.master import (
    add_column,
    barycenter_points,
    column_coeffs,
    init_rm,
    recover_solution,
    solve_rm,
)
from wbary.model import (
    DiscreteMeasure,
    Instance,
    Plan,
    cost_vector,
    make_strides,
)
from wbary.pricing import choose_partition


def build(rng, sizes, variant="any", uniform=True):
    ms = []
    for s in sizes:
        mass = np.full(s, 1.0 / s) if uniform else None
        if mass is None:
            u = rng.uniform(0.2, 1.0, s)
            mass = u / u.sum()
        ms.append(DiscreteMeasure(rng.random((s, 2)), mass))
    inst = Instance(tuple(ms), np.full(len(sizes), 1.0 / len(sizes)))
    part = choose_partition(inst, variant)
    inst_p = inst.permuted(part.perm)
    st = make_strides(inst_p.sizes)
    return inst_p, part, st


def unit_plan(h):
    """All mass on combination h."""
    return Plan(np.array([h], dtype=np.int64), np.ones(1))


def add(rm, p, st):
    """Append p with the master-row entries the driver passes."""
    add_column(rm, p, *column_coeffs(p, rm.inst, st))


class TestInitRM:
    def test_single_column_forces_mu_one(self):
        rng = np.random.default_rng(0)
        inst_p, part, st = build(rng, [2, 3, 2])
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        assert rm.mu is None  # init_rm builds the master; solve_rm solves it
        solve_rm(rm)
        assert rm.mu.shape == (1,)
        assert rm.mu[0] == pytest.approx(1.0)
        assert rm.objective == pytest.approx(rm.costs[0])

    def test_infeasible_start_rejected(self):
        rng = np.random.default_rng(1)
        inst_p, part, st = build(rng, [2, 2, 2])
        bad = unit_plan(0)  # ignores most marginals
        with pytest.raises(Exception):
            init_rm(bad, inst_p, st)


class TestAddColumn:
    def test_block_sums_equal_column_mass(self):
        rng = np.random.default_rng(2)
        inst_p, part, st = build(rng, [2, 2, 3, 2], uniform=False)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        single = unit_plan(7)
        add(rm, single, st)
        coeffs = column_coeffs(single, inst_p, st)[0]
        assert np.array_equal(rm.kernel.cols.A[:, -1], np.append(coeffs, 1.0)[rm._rows])
        pos = 0
        for t in range(2, inst_p.n):
            block = coeffs[pos : pos + inst_p.sizes[t]]
            assert block.sum() == pytest.approx(1.0)
            assert np.count_nonzero(block) == 1
            pos += inst_p.sizes[t]

    def test_cost_is_the_cost_vectors_mass_weighted_sum(self):
        # column_coeffs costs a column from the decode its rows come from,
        # bit for bit as a sum over the column's cost_vector in entry order
        rng = np.random.default_rng(4)
        inst_p, part, st = build(rng, [2, 3, 4, 2], uniform=False)
        columns = [greedy_vertex(inst_p, st), unit_plan(5)]
        for _ in range(20):
            index = rng.choice(st.total, int(rng.integers(1, 8)), replace=False)
            columns.append(Plan(index, rng.uniform(0.1, 1.0, index.size)))
        for p in columns:
            expect = sum(p.mass * cost_vector(inst_p, st, p.index))
            assert column_coeffs(p, inst_p, st)[1] == expect

    def test_duplicate_column_accepted(self):
        rng = np.random.default_rng(3)
        inst_p, part, st = build(rng, [2, 2, 2])
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        add(rm, p1, st)
        mu, y, sigma, obj = solve_rm(rm)
        assert mu.sum() == pytest.approx(1.0)
        assert obj == pytest.approx(rm.costs[0])


class TestMasterRows:
    def test_simplex_rows_have_full_rank(self):
        # A column's entries in each block sum to its convexity entry; the
        # simplex must not see the implied rows, or its basis can go singular.
        rng = np.random.default_rng(9)
        inst_p, part, st = build(rng, [2, 2, 3, 2], uniform=False)
        rm = init_rm(greedy_vertex(inst_p, st), inst_p, st)
        for h in range(st.total):
            add(rm, unit_plan(h), st)
        A = rm.kernel.cols.A
        assert A.shape[1] == st.total + 1
        assert np.linalg.matrix_rank(A) == A.shape[0]

    def test_duals_cover_every_master_row(self):
        rng = np.random.default_rng(10)
        inst_p, part, st = build(rng, [2, 2, 3, 2], uniform=False)
        rm = init_rm(greedy_vertex(inst_p, st), inst_p, st)
        for h in [3, 8, 17]:
            add(rm, unit_plan(h), st)
        mu, y, sigma, obj = solve_rm(rm)
        assert y.shape == (sum(inst_p.sizes[2:]),)
        # every column with positive weight prices to zero against (y, sigma)
        A = np.array([column_coeffs(p, inst_p, st)[0] for p in rm.columns]).T
        reduced = np.array(rm.costs) - y @ A - sigma
        assert np.all(reduced >= -1e-9)
        assert np.allclose(reduced[mu > 1e-12], 0.0, atol=1e-9)


class TestSolveRM:
    def test_resolve_without_new_column_is_free(self, monkeypatch):
        rng = np.random.default_rng(4)
        inst_p, part, st = build(rng, [3, 2, 2])
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        solve_rm(rm)

        def refuse(*args):
            raise AssertionError("a re-solve inverted the basis again")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        again_mu, _, _, again_obj = solve_rm(rm)
        assert rm.last_pivots == 0
        assert again_obj == pytest.approx(rm.objective)

    def test_convexity_invariants(self):
        rng = np.random.default_rng(5)
        inst_p, part, st = build(rng, [2, 2, 2, 2], uniform=False)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        for h in [0, 5, 9, 15]:
            add(rm, unit_plan(h), st)
            mu, y, sigma, obj = solve_rm(rm)
            assert mu.min() >= -1e-12
            assert mu.sum() == pytest.approx(1.0, abs=1e-9)


class TestRecover:
    def test_identical_measures_recover_common_measure(self):
        rng = np.random.default_rng(6)
        pts = rng.random((3, 2))
        m = DiscreteMeasure(pts, np.array([0.2, 0.3, 0.5]))
        inst = Instance((m, m, m), np.full(3, 1 / 3))
        part = choose_partition(inst, "any")
        inst_p = inst.permuted(part.perm)
        st = make_strides(inst_p.sizes)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        w = recover_solution(rm)
        points, objective = barycenter_points(w, inst_p, part.perm, st)
        assert objective == pytest.approx(0.0, abs=1e-12)
        got = {tuple(np.round(p.coords, 12)): p.mass for p in points}
        for j in range(3):
            assert got[tuple(np.round(pts[j], 12))] == pytest.approx(m.masses[j])

    def test_recovered_mass_is_feasible(self):
        rng = np.random.default_rng(7)
        inst_p, part, st = build(rng, [3, 3, 2], uniform=False)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        w = recover_solution(rm)
        assert satisfies_marginals(w, inst_p, st)
        # The points map back to the same plan through their assignments.
        points, _ = barycenter_points(w, inst_p, part.perm, st)
        rebuilt = []
        for p in points:
            digits = [p.assignment[part.perm[t]] for t in range(inst_p.n)]
            rebuilt.append((np.ravel_multi_index(digits, st.sizes), p.mass))
        assert rebuilt == plan_items(w)

    def test_assignments_follow_input_order(self):
        # Pricing permutes measures; reported assignments must not.
        rng = np.random.default_rng(8)
        sizes = [2, 3, 4]
        ms = [DiscreteMeasure(rng.random((s, 2)), np.full(s, 1.0 / s)) for s in sizes]
        inst = Instance(tuple(ms), np.full(3, 1 / 3))
        part = choose_partition(inst, "large")  # permutes (1, 2) to the front
        assert part.perm != (0, 1, 2)
        inst_p = inst.permuted(part.perm)
        st = make_strides(inst_p.sizes)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, st)
        w = recover_solution(rm)
        points, _ = barycenter_points(w, inst_p, part.perm, st)
        assert [p.mass for p in points] == [q for _, q in plan_items(w)]
        for p in points:
            for orig in range(3):
                assert 0 <= p.assignment[orig] < sizes[orig]
            expect = sum(
                inst.lambdas[i] * inst.measures[i].points[p.assignment[i]]
                for i in range(3)
            )
            assert np.allclose(p.coords, expect, atol=1e-12)

    def test_falls_back_to_combined_weights_when_polish_is_not_optimal(self, monkeypatch):
        inst, ref = fallback_instance()

        def not_optimal(*args):
            raise simplex.NumericalError("phase one left artificial mass 0.5")

        monkeypatch.setattr(master, "full_lp", not_optimal)
        check_combined_fallback(monkeypatch, inst, ref)

    def test_falls_back_when_the_polish_fails_while_pivoting(self, monkeypatch):
        # The polish runs the real kernel until its third pricing pass, which
        # raises after two pivots; the master solves are left alone.
        inst, ref = fallback_instance()
        original = simplex.solve_columns
        failed_at = []

        class FailingColumns:
            def __init__(self, kern):
                self.kern, self.cols, self.passes = kern, kern.cols, 0

            def __getattr__(self, name):
                return getattr(self.cols, name)

            def apply_yT(self, y):
                self.passes += 1
                if self.passes == 3:
                    failed_at.append(self.kern.pivots)
                    raise simplex.NumericalError("singular basis matrix")
                return self.cols.apply_yT(y)

        def failing_polish(kern, cost):
            if isinstance(kern.cols, simplex.UnitColumns):
                kern.cols = FailingColumns(kern)
            return original(kern, cost)

        monkeypatch.setattr(simplex, "solve_columns", failing_polish)
        check_combined_fallback(monkeypatch, inst, ref)
        assert failed_at == [2]


def fallback_instance():
    """A three-measure instance and its direct solve."""
    rng = np.random.default_rng(11)
    ms = [
        DiscreteMeasure(rng.random((s, 2)), rng.dirichlet(np.ones(s))) for s in [3, 4, 3]
    ]
    inst = Instance(tuple(ms), np.array([0.2, 0.5, 0.3]))
    return inst, solve_direct(inst)


def check_combined_fallback(monkeypatch, inst, ref):
    """Solve inst and check that recover_solution returned the master's
    combined column weights, and that the result still matches ref."""
    calls = []
    original = master.recover_solution

    def recording(rm):
        w = original(rm)
        calls.append((rm, w))
        return w

    monkeypatch.setattr(master, "recover_solution", recording)
    res = solve(inst)
    assert res.converged
    (rm, w), = calls
    combined = {}
    for weight, col in zip(rm.mu, rm.columns):
        if weight > 1e-12:
            for h, q in plan_items(col):
                combined[h] = combined.get(h, 0.0) + weight * q
    entries = dict(plan_items(w))
    assert entries.keys() == {h for h, q in combined.items() if q > 1e-12}
    assert all(entries[h] == pytest.approx(combined[h], abs=1e-15) for h in entries)
    for i, m in enumerate(inst.measures):
        sums = np.zeros(m.size)
        for p in res.barycenter:
            sums[p.assignment[i]] += p.mass
        assert np.abs(sums - m.masses).max() <= 1e-9
    assert abs(res.objective - ref.objective) <= SolveConfig().tol
