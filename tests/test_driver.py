import numpy as np
import pytest

from oracles import min_over_vertices
from wbary.driver import STEP_LABELS, SolveConfig, solve, solve_direct
from wbary.model import (
    CapacityError,
    DiscreteMeasure,
    Instance,
    column_support,
    cost_vector,
    make_strides,
)


def random_instance(seed, sizes, dim=2, uniform=False):
    rng = np.random.default_rng(seed)
    ms = []
    for s in sizes:
        if uniform:
            mass = np.full(s, 1.0 / s)
        else:
            u = rng.uniform(0.2, 1.0, s)
            mass = u / u.sum()
        ms.append(DiscreteMeasure(rng.random((s, dim)), mass))
    u = rng.uniform(0.2, 1.0, len(sizes))
    return Instance(tuple(ms), u / u.sum())


class TestSmallCases:
    def test_single_measure_identity(self):
        inst = random_instance(0, [4])
        res = solve(inst)
        assert res.converged
        assert res.iterations == 0
        assert res.objective == 0.0
        assert len(res.barycenter) == 4
        assert sum(p.mass for p in res.barycenter) == pytest.approx(1.0)

    def test_two_measures_matches_direct(self):
        inst = random_instance(1, [3, 4])
        res = solve(inst)
        ref = solve_direct(inst)
        assert res.converged
        assert res.iterations == 0
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)

    def test_single_point_measures(self):
        # Every measure has one point: the lone combination is forced.
        inst = random_instance(22, [1, 1, 1])
        res = solve(inst)
        ref = solve_direct(inst)
        assert res.converged
        assert len(res.barycenter) == 1
        assert res.barycenter[0].mass == pytest.approx(1.0)
        assert res.objective == pytest.approx(ref.objective, abs=1e-12)

    def test_direct_2x2x2_matches_vertex_enumeration(self):
        inst = random_instance(2, [2, 2, 2])
        st = make_strides(inst.sizes)
        costs = cost_vector(inst, st)
        A = np.zeros((6, 8))
        for h in range(8):
            A[list(column_support(h, st)), h] = 1.0
        b = np.concatenate([m.masses for m in inst.measures])
        expect = min_over_vertices(costs, A, b)
        res = solve_direct(inst)
        assert res.objective == pytest.approx(expect, abs=1e-9)


class TestVariantsAgree:
    def test_all_six_match_oracle(self):
        for seed in (3, 4, 5):
            inst = random_instance(seed, [3, 4, 2])
            ref = solve_direct(inst)
            for start in ("greedy", "2app"):
                for pair in ("any", "large", "small"):
                    res = solve(inst, SolveConfig(start=start, pair_variant=pair))
                    assert res.converged
                    gap = abs(res.objective - ref.objective)
                    assert gap <= 1e-7 * (1 + abs(ref.objective))


class TestLoopBehavior:
    def test_trace_objective_nonincreasing(self):
        inst = random_instance(6, [4, 4, 4, 3])
        res = solve(inst, SolveConfig(start="greedy", pair_variant="large"))
        objs = [t.rm_objective for t in res.trace]
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))
        assert res.converged
        assert res.trace[-1].pricing_objective >= -1e-6

    def test_iteration_cap_flags_nonconvergence(self):
        inst = random_instance(7, [4, 4, 4])
        res = solve(inst, SolveConfig(max_iter=2))
        assert not res.converged
        assert res.iterations == 2
        assert len(res.barycenter) > 0  # best-so-far still reported

    def test_timings_cover_all_steps(self):
        inst = random_instance(8, [3, 3, 3])
        res = solve(inst)
        for label in STEP_LABELS:
            assert label in res.timings
            assert res.timings[label] >= 0.0
        assert res.timings["total"] > 0.0

    def test_deterministic_given_config(self):
        inst = random_instance(9, [3, 4, 3])
        a = solve(inst, SolveConfig(start="2app", pair_variant="small"))
        b = solve(inst, SolveConfig(start="2app", pair_variant="small"))
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert [tuple(t) for t in a.trace] == [tuple(t) for t in b.trace]
        assert [(p.assignment, p.mass) for p in a.barycenter] == [
            (p.assignment, p.mass) for p in b.barycenter
        ]

    def test_mass_and_support_bounds(self):
        inst = random_instance(10, [4, 3, 4])
        res = solve(inst)
        assert sum(p.mass for p in res.barycenter) == pytest.approx(1.0, abs=1e-9)
        bound = sum(inst.sizes) - inst.n + 1
        assert len(res.barycenter) <= bound  # polished solution is basic

    def test_periodic_rebuild_keeps_the_optimum(self, monkeypatch):
        from wbary import driver, pricing

        calls = []
        original = pricing.recompute_reduced_costs

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(driver, "RECOMPUTE_PERIOD", 3)
        monkeypatch.setattr(pricing, "recompute_reduced_costs", counting)
        inst = random_instance(26, [4, 3, 4, 3])
        ref = solve_direct(inst)
        res = solve(inst)
        assert len(calls) >= 1
        assert res.converged
        assert abs(res.objective - ref.objective) <= 1e-9

    def test_one_dimensional_points(self):
        inst = random_instance(24, [3, 4, 3], dim=1)
        ref = solve_direct(inst)
        res = solve(inst)
        assert abs(res.objective - ref.objective) <= 1e-7 * (1 + ref.objective)

    def test_master_resolves_stay_cheap(self):
        # Warm starts must keep per-iteration pivot work far below a cold solve.
        from wbary import master as master_mod

        counts = []
        original = master_mod.solve_rm

        def counting(state):
            out = original(state)
            counts.append(state.last_pivots)
            return out

        master_mod.solve_rm = counting
        try:
            inst = random_instance(25, [5, 5, 5])
            solve(inst)
        finally:
            master_mod.solve_rm = original
        # first solve pays for phase one; later ones ride the previous basis
        assert len(counts) > 5
        assert np.mean(counts[1:]) <= 10.0


class TestMemoryAccounting:
    def test_cg_tracks_exactly_the_two_big_vectors(self):
        inst = random_instance(11, [4, 4, 4, 4])
        res = solve(inst)
        n_comb = res.n_combinations
        assert n_comb == 256
        # two full-length vectors plus unique-column and master arrays
        assert res.peak_memory_bytes <= 4 * 8 * n_comb + 8 * 16 * 2 + 200_000

    def test_memory_cap_enforced_before_allocation(self):
        inst = random_instance(12, [6] * 8)
        with pytest.raises(CapacityError):
            solve(inst, SolveConfig(memory_cap=1_000_000))

    def test_direct_cap_reports_sizes(self):
        inst = random_instance(13, [6] * 8)
        with pytest.raises(CapacityError) as err:
            solve_direct(inst)
        assert "1679616" in str(err.value)
        assert "200000" in str(err.value)


class TestDirectSolver:
    def test_matches_cg_on_random_instances(self):
        for seed in range(14, 20):
            sizes = np.random.default_rng(seed).integers(2, 5, size=3).tolist()
            inst = random_instance(seed, sizes)
            ref = solve_direct(inst)
            res = solve(inst)
            assert abs(res.objective - ref.objective) <= 1e-7 * (1 + ref.objective)

    def test_basic_solution_is_sparse(self):
        inst = random_instance(20, [4, 4, 3])
        ref = solve_direct(inst)
        assert len(ref.barycenter) <= sum(inst.sizes) - inst.n + 1

    def test_single_measure(self):
        inst = random_instance(21, [5])
        ref = solve_direct(inst)
        assert ref.objective == 0.0
