import numpy as np
import pytest

from wbary.initial import greedy_vertex
from wbary.master import add_column, init_rm, master_lp, recover_solution, solve_rm
from wbary.model import (
    DiscreteMeasure,
    Instance,
    SparseMass,
    make_strides,
    satisfies_marginals,
)
from wbary.pricing import choose_partition, init_reduced_costs


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
    state = init_reduced_costs(inst_p, part, st)
    return inst_p, part, st, state


class TestInitRM:
    def test_single_column_forces_mu_one(self):
        rng = np.random.default_rng(0)
        inst_p, part, st, state = build(rng, [2, 3, 2])
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        assert rm.mu.shape == (1,)
        assert rm.mu[0] == pytest.approx(1.0)
        assert rm.objective == pytest.approx(rm._cost[0])

    def test_infeasible_start_rejected(self):
        rng = np.random.default_rng(1)
        inst_p, part, st, state = build(rng, [2, 2, 2])
        bad = SparseMass({0: 1.0})  # ignores most marginals
        with pytest.raises(Exception):
            init_rm(bad, inst_p, part, st, state.costs)


class TestAddColumn:
    def test_block_sums_equal_column_mass(self):
        rng = np.random.default_rng(2)
        inst_p, part, st, state = build(rng, [2, 2, 3, 2], uniform=False)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        single = SparseMass({7: 1.0})
        add_column(rm, single, st, state.costs)
        coeffs = rm._A[:-1, -1]
        pos = 0
        for t in range(2, inst_p.n):
            block = coeffs[pos : pos + inst_p.sizes[t]]
            assert block.sum() == pytest.approx(1.0)
            assert np.count_nonzero(block) == 1
            pos += inst_p.sizes[t]

    def test_duplicate_column_accepted(self):
        rng = np.random.default_rng(3)
        inst_p, part, st, state = build(rng, [2, 2, 2])
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        add_column(rm, p1, st, state.costs)
        mu, y, sigma, obj = solve_rm(rm)
        assert mu.sum() == pytest.approx(1.0)
        assert obj == pytest.approx(rm._cost[0])


class TestMasterRows:
    def test_simplex_rows_have_full_rank(self):
        # A column's entries in each block sum to its convexity entry; the
        # simplex must not see the implied rows, or its basis can go singular.
        rng = np.random.default_rng(9)
        inst_p, part, st, state = build(rng, [2, 2, 3, 2], uniform=False)
        rm = init_rm(greedy_vertex(inst_p, st), inst_p, part, st, state.costs)
        for h in range(st.total):
            add_column(rm, SparseMass({h: 1.0}), st, state.costs)
        A = master_lp(rm).A
        assert A.shape[1] == st.total + 1
        assert np.linalg.matrix_rank(A) == A.shape[0]

    def test_duals_cover_every_master_row(self):
        rng = np.random.default_rng(10)
        inst_p, part, st, state = build(rng, [2, 2, 3, 2], uniform=False)
        rm = init_rm(greedy_vertex(inst_p, st), inst_p, part, st, state.costs)
        for h in [3, 8, 17]:
            add_column(rm, SparseMass({h: 1.0}), st, state.costs)
        mu, y, sigma, obj = solve_rm(rm)
        assert y.shape == (sum(inst_p.sizes[2:]),)
        # every column with positive weight prices to zero against (y, sigma)
        reduced = rm._cost - y @ rm._A[:-1] - sigma
        assert np.all(reduced >= -1e-9)
        assert np.allclose(reduced[mu > 1e-12], 0.0, atol=1e-9)


class TestSolveRM:
    def test_resolve_without_new_column_is_free(self):
        rng = np.random.default_rng(4)
        inst_p, part, st, state = build(rng, [3, 2, 2])
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        solve_rm(rm)
        again_mu, _, _, again_obj = solve_rm(rm)
        assert rm.last_pivots == 0
        assert again_obj == pytest.approx(rm.objective)

    def test_convexity_invariants(self):
        rng = np.random.default_rng(5)
        inst_p, part, st, state = build(rng, [2, 2, 2, 2], uniform=False)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        for h in [0, 5, 9, 15]:
            add_column(rm, SparseMass({h: 1.0}), st, state.costs)
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
        state = init_reduced_costs(inst_p, part, st)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        raw, polished = recover_solution(rm, inst_p, part, st, state.costs)
        assert polished.objective == pytest.approx(0.0, abs=1e-12)
        got = {tuple(np.round(p.coords, 12)): p.mass for p in polished.points}
        for j in range(3):
            assert got[tuple(np.round(pts[j], 12))] == pytest.approx(m.masses[j])

    def test_recovered_mass_is_feasible(self):
        rng = np.random.default_rng(7)
        inst_p, part, st, state = build(rng, [3, 3, 2], uniform=False)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        raw, polished = recover_solution(rm, inst_p, part, st, state.costs)
        w = SparseMass()
        for p in polished.points:
            digits = [p.assignment[part.perm[t]] for t in range(inst_p.n)]
            from wbary.model import index_of

            w.add(index_of(digits, st), p.mass)
        assert satisfies_marginals(w, inst_p, st)

    def test_assignments_follow_input_order(self):
        # Pricing permutes measures; recovered assignments must not.
        rng = np.random.default_rng(8)
        sizes = [2, 3, 4]
        ms = [DiscreteMeasure(rng.random((s, 2)), np.full(s, 1.0 / s)) for s in sizes]
        inst = Instance(tuple(ms), np.full(3, 1 / 3))
        part = choose_partition(inst, "large")  # permutes (1, 2) to the front
        assert part.perm != (0, 1, 2)
        inst_p = inst.permuted(part.perm)
        st = make_strides(inst_p.sizes)
        state = init_reduced_costs(inst_p, part, st)
        p1 = greedy_vertex(inst_p, st)
        rm = init_rm(p1, inst_p, part, st, state.costs)
        raw, _ = recover_solution(rm, inst_p, part, st, state.costs)
        for p in raw.points:
            for orig in range(3):
                assert 0 <= p.assignment[orig] < sizes[orig]
            expect = sum(
                inst.lambdas[i] * inst.measures[i].points[p.assignment[i]]
                for i in range(3)
            )
            assert np.allclose(p.coords, expect, atol=1e-12)
