import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import column_support, plan_items, satisfies_marginals
from wbary import master, simplex
from wbary.driver import SolveConfig, solve, solve_direct, solve_master
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
)
from wbary.pricing import choose_partition

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS, Case, generate  # noqa: E402


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
    return inst_p, part


def unit_plan(h):
    """All mass on combination h."""
    return Plan(np.array([h], dtype=np.int64), np.ones(1))


def add(rm, p):
    """Append p with the master-row entries the driver passes."""
    add_column(rm, p, *column_coeffs(p, rm.inst))


class TestInitRM:
    def test_single_column_forces_mu_one(self):
        rng = np.random.default_rng(0)
        inst_p, part = build(rng, [2, 3, 2])
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        assert rm.mu is None  # init_rm builds the master; solve_rm solves it
        solve_rm(rm)
        assert rm.mu.shape == (1,)
        assert rm.mu[0] == pytest.approx(1.0)
        assert rm.objective == pytest.approx(rm.costs[0])

    def test_infeasible_start_rejected(self):
        rng = np.random.default_rng(1)
        inst_p, part = build(rng, [2, 2, 2])
        bad = unit_plan(0)  # ignores most marginals
        with pytest.raises(Exception):
            init_rm(bad, inst_p)


class TestAddColumn:
    def test_block_sums_equal_column_mass(self):
        rng = np.random.default_rng(2)
        inst_p, part = build(rng, [2, 2, 3, 2], uniform=False)
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        single = unit_plan(7)
        add(rm, single)
        coeffs = column_coeffs(single, inst_p)[0]
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
        inst_p, part = build(rng, [2, 3, 4, 2], uniform=False)
        columns = [greedy_vertex(inst_p), unit_plan(5)]
        for _ in range(20):
            index = rng.choice(inst_p.strides.total, int(rng.integers(1, 8)), replace=False)
            columns.append(Plan(index, rng.uniform(0.1, 1.0, index.size)))
        for p in columns:
            expect = sum(p.mass * cost_vector(inst_p, p.index))
            assert column_coeffs(p, inst_p)[1] == expect

    def test_duplicate_column_accepted(self):
        rng = np.random.default_rng(3)
        inst_p, part = build(rng, [2, 2, 2])
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        add(rm, p1)
        mu, y, sigma, obj = solve_rm(rm)
        assert mu.sum() == pytest.approx(1.0)
        assert obj == pytest.approx(rm.costs[0])


class TestMasterRows:
    def test_simplex_rows_have_full_rank(self):
        # A column's entries in each block sum to its convexity entry; the
        # simplex must not see the implied rows, or its basis can go singular.
        rng = np.random.default_rng(9)
        inst_p, part = build(rng, [2, 2, 3, 2], uniform=False)
        rm = init_rm(greedy_vertex(inst_p), inst_p)
        for h in range(inst_p.strides.total):
            add(rm, unit_plan(h))
        A = rm.kernel.cols.A
        assert A.shape[1] == inst_p.strides.total + 1
        assert np.linalg.matrix_rank(A) == A.shape[0]

    def test_duals_cover_every_master_row(self):
        rng = np.random.default_rng(10)
        inst_p, part = build(rng, [2, 2, 3, 2], uniform=False)
        rm = init_rm(greedy_vertex(inst_p), inst_p)
        for h in [3, 8, 17]:
            add(rm, unit_plan(h))
        mu, y, sigma, obj = solve_rm(rm)
        assert y.shape == (sum(inst_p.sizes[2:]),)
        # every column with positive weight prices to zero against (y, sigma)
        A = np.array([column_coeffs(p, inst_p)[0] for p in rm.columns]).T
        reduced = np.array(rm.costs) - y @ A - sigma
        assert np.all(reduced >= -1e-9)
        assert np.allclose(reduced[mu > 1e-12], 0.0, atol=1e-9)


class TestSolveRM:
    def test_resolve_without_new_column_is_free(self, monkeypatch):
        rng = np.random.default_rng(4)
        inst_p, part = build(rng, [3, 2, 2])
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        solve_rm(rm)

        def refuse(*args):
            raise AssertionError("a re-solve inverted the basis again")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        again_mu, _, _, again_obj = solve_rm(rm)
        assert rm.last_pivots == 0
        assert again_obj == pytest.approx(rm.objective)

    def test_convexity_invariants(self):
        rng = np.random.default_rng(5)
        inst_p, part = build(rng, [2, 2, 2, 2], uniform=False)
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        for h in [0, 5, 9, 15]:
            add(rm, unit_plan(h))
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
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        w = recover_solution(rm, -np.inf)  # no bound: the polish
        points, objective = barycenter_points(w, inst_p, part.perm)
        assert objective == pytest.approx(0.0, abs=1e-12)
        got = {tuple(np.round(p.coords, 12)): p.mass for p in points}
        for j in range(3):
            assert got[tuple(np.round(pts[j], 12))] == pytest.approx(m.masses[j])

    def test_recovered_mass_is_feasible(self):
        rng = np.random.default_rng(7)
        inst_p, part = build(rng, [3, 3, 2], uniform=False)
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        w = recover_solution(rm, -np.inf)  # no bound: the polish
        assert satisfies_marginals(w, inst_p, inst_p.strides)
        # The points map back to the same plan through their assignments.
        points, _ = barycenter_points(w, inst_p, part.perm)
        rebuilt = []
        for p in points:
            digits = [p.assignment[part.perm[t]] for t in range(inst_p.n)]
            rebuilt.append((np.ravel_multi_index(digits, inst_p.sizes), p.mass))
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
        p1 = greedy_vertex(inst_p)
        rm = init_rm(p1, inst_p)
        w = recover_solution(rm, -np.inf)  # no bound: the polish
        points, _ = barycenter_points(w, inst_p, part.perm)
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

        polished = []

        def not_optimal(*args):
            polished.append(args)
            raise simplex.NumericalError("phase one left artificial mass 0.5")

        monkeypatch.setattr(master, "full_lp", not_optimal)
        check_combined_fallback(monkeypatch, inst, ref)
        assert len(polished) == 1

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
    """A three-measure instance whose converged run stops at a real gap, so
    that recover_solution polishes, and its direct solve."""
    rng = np.random.default_rng(2)
    ms = [
        DiscreteMeasure(rng.random((s, 2)), rng.dirichlet(np.ones(s))) for s in [3, 4, 3]
    ]
    inst = Instance(tuple(ms), np.array([0.2, 0.5, 0.3]))
    return inst, solve_direct(inst)


def recorded_solve(monkeypatch, inst, cfg=None):
    """Solve inst by the paper's route; return the result and the master,
    bound and plan of its one recover_solution call. solve would take the
    unit route, with no master, on the wide and mixed benchmark instances."""
    calls = []
    original = master.recover_solution

    def recording(rm, lower_bound):
        w = original(rm, lower_bound)
        calls.append((rm, lower_bound, w))
        return w

    monkeypatch.setattr(master, "recover_solution", recording)
    res = solve_master(inst, cfg)
    (call,) = calls
    return (res, *call)


def check_combined_fallback(monkeypatch, inst, ref):
    """Solve inst and check that recover_solution returned the master's
    combined column weights, and that the result still matches ref."""
    res, rm, _, w = recorded_solve(monkeypatch, inst)
    assert res.converged
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


def bench_instance(case, dim=2):
    """The instance of a benchmark case (bench/workloads.py), as `wbary gen`
    writes it, and the settings the benchmark solves it with."""
    data = generate(case, dim)
    ms = tuple(DiscreteMeasure(p, m) for p, m in zip(data.points, data.masses))
    return Instance(ms, data.weights), SolveConfig(start=case.start, pair_variant=case.pair)


def certified(objective, lower_bound):
    return objective - lower_bound <= master.CERTIFIED_GAP * max(1.0, abs(objective))


def count_polishes(monkeypatch):
    """Record every master.full_lp call; return the record and the original."""
    original = master.full_lp
    polished = []

    def counting(*args):
        polished.append(args)
        return original(*args)

    monkeypatch.setattr(master, "full_lp", counting)
    return polished, original


def weighted_support(rm):
    """The union of the supports of the columns the master weights above
    rounding, as master._combine weighs them."""
    return np.unique(
        np.concatenate([c.index for mu, c in zip(rm.mu, rm.columns) if mu > 1e-12])
    )


def check_certified_resolve(monkeypatch, inst, cfg=None):
    """Solve inst; if the master's gap closed to rounding, check that the one
    re-solve ran over the weighted columns' supports only and returned the
    vertex the cold polish over every generated support returns. Returns
    whether the gap closed."""
    polished, original = count_polishes(monkeypatch)
    res, rm, lower_bound, w = recorded_solve(monkeypatch, inst, cfg)
    assert res.converged
    if not certified(rm.objective, lower_bound):
        return False
    ((resolved, _),) = polished
    assert np.array_equal(resolved, weighted_support(rm))
    assert certified(res.objective, res.lower_bound)
    support = np.unique(np.concatenate([col.index for col in rm.columns]))
    ref = original(support, rm.inst)
    assert np.array_equal(w.index, ref.index)  # both ascending
    assert np.abs(w.mass - ref.mass).max() <= 1e-14
    perm = tuple(range(rm.inst.n))
    objective = barycenter_points(w, rm.inst, perm)[1]
    assert abs(objective - barycenter_points(ref, rm.inst, perm)[1]) <= 1e-14
    return True


class TestCertifiedVertex:
    """A master plan that meets the bound to rounding is optimal, so the LP
    over the columns it weights has the polish's optimum; recover_solution
    solves that LP instead of the one over every generated combination."""

    @pytest.mark.parametrize(
        "case", WORKLOADS["wide"] + WORKLOADS["deep"], ids=lambda case: case.key
    )
    def test_benchmark_instances_keep_the_polish_vertex(self, monkeypatch, case):
        assert check_certified_resolve(monkeypatch, *bench_instance(case))

    def test_random_instances_keep_the_polish_vertex(self):
        rng = np.random.default_rng(31)
        kept = set()
        for k in range(40):
            sizes = tuple(rng.integers(2, 9, int(rng.integers(3, 7))).tolist())
            dim, masses = 1 + k % 3, ("uniform", "random")[k % 2]
            case = Case(sizes, masses, k, start=("greedy", "2app")[k // 2 % 2])
            with pytest.MonkeyPatch.context() as mp:
                if check_certified_resolve(mp, *bench_instance(case, dim)):
                    kept.add((k, dim, masses))
        assert len(kept) >= 20
        assert {(dim, masses) for _, dim, masses in kept} == {
            (dim, masses) for dim in (1, 2, 3) for masses in ("uniform", "random")
        }

    def test_restricted_lp_keeps_only_a_vertex_that_meets_the_marginals(self):
        inst, _ = bench_instance(Case((2, 2, 2), "uniform", 5))  # every mass 0.5

        def resolve(index):
            return master.full_lp(np.array(index, dtype=np.int64), inst)

        # (0,0,0) and (1,1,1) are independent; their masses re-solve to 0.5
        w = resolve([0, 7])
        assert np.array_equal(w.index, [0, 7])
        assert np.allclose(w.mass, 0.5, rtol=0, atol=1e-15)
        # all eight combinations span six rows of rank four: a basic plan
        w = resolve(range(8))
        assert w.index.size <= 4
        assert satisfies_marginals(w, inst, inst.strides, tol=1e-15)
        # (0,1,1) is independent of the other two but the marginals give it
        # no mass
        w = resolve([0, 3, 7])
        assert np.array_equal(w.index, [0, 7])
        assert np.allclose(w.mass, 0.5, rtol=0, atol=1e-15)
        # (0,0,0) alone cannot meet the marginals
        with pytest.raises(simplex.NumericalError):
            resolve([0])

    def test_solved_master_at_its_own_objective_gives_a_vertex(self, monkeypatch):
        # The second mixed case stops at a real gap; taking the master
        # objective as the bound re-solves over its weighted columns only.
        _, rm, _, _ = recorded_solve(
            monkeypatch, *bench_instance(WORKLOADS["mixed"][1])
        )
        assert np.count_nonzero(rm.mu > 1e-12) >= 2
        polished, _ = count_polishes(monkeypatch)
        w = recover_solution(rm, rm.objective)
        ((support, _),) = polished
        assert np.array_equal(support, weighted_support(rm))
        A = np.zeros((sum(rm.inst.sizes), w.index.size))
        for j, h in enumerate(w.index.tolist()):
            A[list(column_support(h, rm.inst.strides)), j] = 1.0
        assert np.linalg.matrix_rank(A) == w.index.size
        assert satisfies_marginals(w, rm.inst, rm.inst.strides, tol=1e-12)
        cost = w.mass @ cost_vector(rm.inst, w.index)
        assert cost <= rm.objective + master.CERTIFIED_GAP

    def test_certified_deep_run_resolves_only_the_weighted_columns(self, monkeypatch):
        original_lp, original_recover = master.full_lp, master.recover_solution
        masters = []

        def recording(rm, lower_bound):
            masters.append(rm)
            return original_recover(rm, lower_bound)

        def weighted_only(support, inst):
            (rm,) = masters
            if not np.isin(support, weighted_support(rm)).all():
                raise AssertionError("a certified run re-solved unweighted columns")
            return original_lp(support, inst)

        monkeypatch.setattr(master, "recover_solution", recording)
        monkeypatch.setattr(master, "full_lp", weighted_only)
        inst, cfg = bench_instance(Case((8,) * 5, "uniform", 3))  # deep-sized
        res = solve(inst, cfg)
        assert res.converged
        assert certified(res.objective, res.lower_bound)
        assert len(res.barycenter) <= sum(inst.sizes) - inst.n + 1
        for i, m in enumerate(inst.measures):
            sums = np.zeros(m.size)
            for p in res.barycenter:
                sums[p.assignment[i]] += p.mass
            assert np.abs(sums - m.masses).max() <= 1e-12

    def test_run_stopped_at_a_real_gap_polishes_once(self, monkeypatch):
        # the mixed benchmark's second case stops at a gap of about 3.0e-8
        polished, _ = count_polishes(monkeypatch)
        res, rm, lower_bound, _ = recorded_solve(
            monkeypatch, *bench_instance(WORKLOADS["mixed"][1])
        )
        assert res.converged
        assert not certified(rm.objective, lower_bound)
        assert len(polished) == 1
