import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import column_support, min_over_vertices
from wbary import driver, master, model, pricing, simplex
from wbary.driver import STEP_LABELS, SolveConfig, solve, solve_direct
from wbary.initial import relocation_bytes, two_approx
from wbary.model import CapacityError, DiscreteMeasure, Instance, cost_vector


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

    @pytest.mark.parametrize("sizes", [[4], [3, 4], [3, 2, 3]], ids=["n1", "n2", "n3"])
    @pytest.mark.parametrize("how", [solve, solve_direct], ids=["cg", "direct"])
    def test_every_route_reports_builtin_floats(self, sizes, how):
        res = how(random_instance(2, sizes))
        assert type(res.objective) is float
        assert all(type(p.mass) is float for p in res.barycenter)

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
        st = inst.strides
        costs = cost_vector(inst, np.arange(8))
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


class TestTileSize:
    @pytest.mark.parametrize(
        "seed, sizes, uniform",
        [(40, [3] * 8, True), (41, [4, 5, 3, 4], False), (42, [6, 5, 4, 3, 3], False)],
        ids=["3x8-uniform", "4534-random", "65433-random"],
    )
    def test_results_do_not_depend_on_the_tile_size(self, monkeypatch, seed, sizes, uniform):
        # uniform masses make the master and transport LPs degenerate; tiles
        # of 1 or 7 entries split every pricing row (12 to 81 columns), 37
        # splits the rows of [3] * 8 and holds whole rows of the others
        inst = random_instance(seed, sizes, uniform=uniform)
        runs = []
        for block in (1 << 20, model.BLOCK, 37, 7, 1):
            monkeypatch.setattr(model, "BLOCK", block)
            res = solve(inst)
            assert res.converged
            runs.append((
                res.objective.hex(), res.iterations, res.pricing_calls,
                [(p.assignment, p.mass) for p in res.barycenter],
            ))
        assert all(run == runs[0] for run in runs[1:])


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
        assert res.trace[-1].rm_objective - res.trace[-1].lb > SolveConfig().tol
        assert len(res.barycenter) > 0  # best-so-far still reported

    def test_capped_run_polishes_over_every_generated_combination(self):
        # The polish re-solves the full LP over the support of every admitted
        # column, so a capped run returns at most, and here often well below,
        # its last master objective. Narrowed to the support of the master's
        # combined plan, it would return that plan's cost instead.
        below = []
        for k in range(5):
            rng = np.random.default_rng(900 + k)
            inst = Instance(
                tuple(DiscreteMeasure(rng.random((6, 2)), rng.dirichlet(np.ones(6)))
                      for _ in range(5)),
                np.full(5, 0.2),
            )
            for max_iter in (2, 5, 10):
                res = solve(inst, SolveConfig(max_iter=max_iter))
                assert not res.converged
                last = res.trace[-1].rm_objective
                assert res.objective <= last + 1e-12
                below.append(last - res.objective)
        assert max(below) > 1e-6

    def test_timings_cover_all_steps(self):
        inst = random_instance(8, [3, 3, 3])
        res = solve(inst)
        for label in STEP_LABELS:
            assert label in res.timings
            assert res.timings[label] >= 0.0
        assert res.timings["total"] > 0.0

    def test_config_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="start"):
            SolveConfig(start="bogus")
        with pytest.raises(ValueError, match="pair variant"):
            SolveConfig(pair_variant="bogus")

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_config_rejects_nonfinite_tol(self, tol):
        # NaN never stops the loop and inf stops it after one pricing.
        with pytest.raises(ValueError, match="tol must be finite"):
            SolveConfig(tol=tol)

    def test_config_is_frozen(self):
        # The checks run at construction, so no field may change after it.
        cfg = SolveConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.start = "bogus"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tol = -1.0
        assert dataclasses.replace(cfg, tol=1e-8).tol == 1e-8
        with pytest.raises(ValueError, match="tol must be positive"):
            dataclasses.replace(cfg, tol=-1.0)

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

    def test_every_pricing_rebuilds_the_dual_sum(self, monkeypatch):
        calls = []
        original = pricing.recompute_reduced_costs

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pricing, "recompute_reduced_costs", counting)
        inst = random_instance(26, [4, 3, 4, 3])
        ref = solve_direct(inst)
        res = solve(inst)
        assert len(calls) == res.pricing_calls
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

    def test_master_of_two_hundred_rows_matches_direct(self):
        # About 200 master rows and 698 master solves: the master's column
        # store doubles ten times, and B^-1 is kept across the solves and
        # re-inverted every refactor_interval(m) pivots, here m, or on a
        # failed residual check.
        inst = random_instance(12, [2, 2, 200])
        res = solve(inst, SolveConfig(pair_variant="small"))
        assert res.converged
        assert res.iterations > 512
        assert abs(res.objective - solve_direct(inst).objective) <= 1e-9


class TestCertificate:
    """The trace's lower bound is a valid, monotone certificate of the gap."""

    def test_bounds_over_twenty_instances_and_six_variants(self):
        tol = SolveConfig().tol
        misprices = 0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            sizes = rng.integers(2, 6, size=int(rng.integers(3, 6))).tolist()
            inst = random_instance(500 + seed, sizes, uniform=seed % 2 == 0)
            optimum = solve_direct(inst).objective
            for start in ("greedy", "2app"):
                for pair in ("any", "large", "small"):
                    res = solve(inst, SolveConfig(start=start, pair_variant=pair))
                    lbs = [t.lb for t in res.trace]
                    # 1e-12 of rounding: at a closed gap the bound and the
                    # objectives agree to a few ulps (up to 6e-16 seen)
                    assert all(lb <= optimum + 1e-12 for lb in lbs)
                    assert all(t.lb <= t.rm_objective + 1e-12 for t in res.trace)
                    assert all(a <= b for a, b in zip(lbs, lbs[1:]))
                    assert all(
                        t.pricing_objective == t.lb - t.rm_objective for t in res.trace
                    )
                    assert res.converged
                    last = res.trace[-1]
                    assert last.rm_objective - last.lb <= tol
                    # the result carries the bound; the basic optimum it
                    # reports is at most the last master objective
                    assert res.lower_bound == last.lb
                    assert res.objective - res.lower_bound <= tol + 1e-12
                    eps = master.CERTIFIED_GAP * max(1.0, abs(last.rm_objective))
                    if last.rm_objective - last.lb <= eps:
                        assert res.objective - res.lower_bound <= eps
                    # both starts price once more, at their seed duals
                    seeded = res.iterations + 1
                    assert res.pricing_calls >= seeded
                    misprices += res.pricing_calls > seeded
        # Some solve prices twice in one iteration: the misprice branch runs.
        assert misprices > 0

    @pytest.mark.parametrize(
        "sizes, how", [([4], solve), ([3, 4], solve), ([3, 2, 3], solve_direct)],
        ids=["n1", "n2", "direct"],
    )
    def test_exact_routes_bound_themselves(self, sizes, how):
        # one or two measures and solve_direct return an exact LP optimum
        res = how(random_instance(2, sizes))
        assert res.lower_bound == res.objective

    def test_seeded_first_bound(self):
        # Both starts price at their seed duals before the first master
        # solve, so the first bound is finite and valid. The greedy seed is
        # zero, where the bound is the cheapest vertex's cost: at least 0,
        # as every cost is nonnegative.
        rng = np.random.default_rng(77)
        for seed in range(12):
            sizes = rng.integers(2, 6, size=int(rng.integers(3, 6))).tolist()
            inst = random_instance(700 + seed, sizes)
            optimum = solve_direct(inst).objective
            for start in driver.START_VARIANTS:
                res = solve(inst, SolveConfig(start=start))
                assert res.converged
                assert np.isfinite(res.trace[0].lb)
                assert res.trace[0].lb <= optimum + 1e-9
                if start == "greedy":
                    assert -1e-12 <= res.trace[0].lb <= optimum
                assert abs(res.objective - optimum) <= 1e-9

    def test_seed_pricing_is_counted(self, monkeypatch):
        priced_at = []
        original = pricing.recompute_reduced_costs

        def recorded(state, pi, *args):
            priced_at.append(pi.copy())
            return original(state, pi, *args)

        monkeypatch.setattr(pricing, "recompute_reduced_costs", recorded)
        inst = random_instance(27, [4, 3, 5, 3])
        # the first pricing is at the seed duals of the master's rows: the
        # permuted instance's measures after the pricing pair
        inst_p = inst.permuted(pricing.choose_partition(inst, "small").perm)
        seeds = {
            "greedy": np.zeros(sum(inst_p.sizes[2:])),
            "2app": two_approx(inst_p).duals[inst_p.sizes[0] + inst_p.sizes[1] :],
        }
        for start, seed in seeds.items():
            priced_at.clear()
            res = solve(inst, SolveConfig(start=start, pair_variant="small"))
            assert len(priced_at) == res.pricing_calls >= res.iterations + 1
            assert np.array_equal(priced_at[0], seed)


class TestMemoryAccounting:
    def test_cg_tracks_the_pricing_state(self, monkeypatch):
        inst = random_instance(11, [4, 4, 4, 4])
        res = solve(inst)
        assert res.n_combinations == 256
        # pair of 4 x 4 points; both trailing measures in the tail. Held: [P, 1]
        # and a, a_static over n_e = 16 rows, [-2Z; b] and b_static over
        # n_lo = 16 columns, two unique-column arrays of 16 entries; and the
        # master's column store at a power-of-two width, and its basis
        # inverse, both over 7 rows (8 master rows plus the convexity row,
        # less the implied row of each trailing measure). The store holds
        # iterations + 1 columns: the start vertex, the seed pricing's column
        # and one per master solve but the last.
        n_e, n_lo, n_unique, dim = 16, 16, 16, 2
        state = 8 * (n_e * (dim + 1 + 2) + n_lo * (dim + 1 + 1) + 2 * n_unique)
        assert state == 1408 == pricing.state_bytes(inst.sizes, dim)
        rows = 4 + 4 + 1 - 2

        def master(columns):
            return 8 * rows * (1 << (columns - 1).bit_length()) + 8 * rows * rows

        assert res.peak_memory_bytes == state + master(res.iterations + 1)
        # a smaller tail moves the second trailing measure into the head
        monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: 3)
        res = solve(inst)
        n_e, n_lo = 64, 4
        state = 8 * (n_e * (dim + 1 + 2) + n_lo * (dim + 1 + 1) + 2 * n_unique)
        assert state == pricing.state_bytes(inst.sizes, dim)
        assert res.peak_memory_bytes == state + master(res.iterations + 1)
        # two measures: the cost matrix alone
        pair = random_instance(11, [4, 4])
        assert solve(pair).peak_memory_bytes == 8 * 16
        # direct: the costs plus one row index per measure per column
        direct = solve_direct(inst)
        assert direct.peak_memory_bytes == (inst.n + 1) * 8 * 256

    def test_byte_cap_enforced_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pricing state allocated over the cap")

        monkeypatch.setattr(pricing, "init_reduced_costs", refuse)
        # the pricing pair of two 70000-point measures has 4.9e9 patterns
        skewed = random_instance(12, [2, 2, 70_000, 70_000], dim=1)
        with pytest.raises(CapacityError):
            solve(skewed)
        # the pricing state of [6] * 8 alone (93,888 bytes) is over this cap
        monkeypatch.setattr(driver, "MEMORY_CAP", 80_000)
        inst = random_instance(12, [6] * 8)
        with pytest.raises(CapacityError):
            solve(inst)
        monkeypatch.setattr(driver, "MEMORY_CAP", 1_000_000)
        # the two-measure route passes the same check
        with pytest.raises(CapacityError):
            solve(random_instance(12, [400, 400]))

    def test_pair_charge_bounds_the_peak(self, monkeypatch):
        # two 300-point measures on one line in the same order: the squared
        # distance is a Monge cost, so the northwest corner is optimal and
        # the transport makes no pivot; the cost build sets the peak
        rng = np.random.default_rng(12)
        ms = []
        for _ in range(2):
            t = np.sort(rng.random(300))
            u = rng.uniform(0.2, 1.0, 300)
            ms.append(DiscreteMeasure(np.column_stack([t, t]), u / u.sum()))
        inst = Instance(tuple(ms), np.array([0.5, 0.5]))
        tracemalloc.start()
        try:
            assert solve(inst).converged
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(driver, "MEMORY_CAP", peak)
        with pytest.raises(CapacityError):
            solve(inst)

    def test_byte_cap_counts_the_dense_simplex_matrices(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simplex run over the cap")

        monkeypatch.setattr(driver, "MEMORY_CAP", 1_000_000)
        sizes = (2, 2, 66)
        with monkeypatch.context() as mp:
            mp.setattr(simplex, "solve_columns", refuse)
            # the polish's B, its inverse and a rank-one temporary over 304
            # rows need 24 * 304**2 = 2.2 MB, though the pricing state is small
            small_pair = SolveConfig(pair_variant="small")
            with pytest.raises(CapacityError):
                solve(random_instance(12, [2, 2, 300]), small_pair)
            with pytest.raises(CapacityError):
                solve_direct(random_instance(12, [2, 300]))
            # the relocation LP's cost table, plans, basis over 70 rows and
            # column store, beside the pricing state, one tile of all 264
            # combinations and the polish's basis: 1.06 MB
            need = (
                pricing.state_bytes(sizes, 2) + 8 * 264 + 24 * 70**2
                + relocation_bytes(sizes)
            )
            relocated = SolveConfig(start="2app", pair_variant="small")
            with pytest.raises(CapacityError, match=f"{need} bytes"):
                solve(random_instance(12, sizes), relocated)
        assert solve(random_instance(12, sizes), small_pair).converged

    def test_a_measure_beyond_2_16_points_goes_to_the_tail(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated over the cap")

        monkeypatch.setattr(pricing, "init_reduced_costs", refuse)
        monkeypatch.setattr(simplex, "solve_columns", refuse)
        # a tail of the last measure: 280,000 head rows against 70,000 columns
        assert pricing.state_bytes((2, 2, 70_000, 70_000), 1) == 10_640_064
        skewed = random_instance(12, [2, 2, 70_000, 70_000], dim=1)
        # what the cap refuses is the dense basis over all 140,004 points
        need = 10_640_064 + 8 * model.BLOCK + 24 * 140_004**2
        with pytest.raises(CapacityError, match=f"{need} bytes"):
            solve(skewed, SolveConfig(pair_variant="any"))

    def test_byte_cap_counts_the_pricing_state(self, monkeypatch):
        inst = random_instance(11, [4, 4, 4, 4])
        ref = solve_direct(inst)
        # the pricing state, one tile of its pass (all 256 combinations),
        # and the polish's B, its inverse and one rank-one temporary over one
        # row per input point
        held = (
            pricing.state_bytes(inst.sizes, inst.dim) + 8 * 256
            + 24 * sum(inst.sizes) ** 2
        )
        monkeypatch.setattr(driver, "MEMORY_CAP", held)
        res = solve(inst)
        assert res.converged
        assert abs(res.objective - ref.objective) <= 1e-9
        monkeypatch.setattr(driver, "MEMORY_CAP", held - 1)
        with pytest.raises(CapacityError, match=f"{held} bytes"):
            solve(inst)

    def test_byte_cap_counts_one_pricing_tile(self, monkeypatch):
        def past_the_check(*args):
            raise LookupError("the cap check passed")

        monkeypatch.setattr(pricing, "init_reduced_costs", past_the_check)
        monkeypatch.setattr(driver, "cost_vector", past_the_check)  # two measures
        inst = random_instance(11, [4] * 9)
        assert 4**9 >= model.BLOCK
        # the pricing state and the polish's dense matrices, without the tile
        held = pricing.state_bytes(inst.sizes, inst.dim) + simplex.kernel_bytes(36)
        tile = 8 * model.BLOCK
        monkeypatch.setattr(driver, "MEMORY_CAP", held)
        with pytest.raises(CapacityError, match=f"{held + tile} bytes"):
            solve(inst)
        monkeypatch.setattr(driver, "MEMORY_CAP", held + tile)
        with pytest.raises(LookupError):
            solve(inst)
        # both charges read model.BLOCK when solve runs
        monkeypatch.setattr(model, "BLOCK", 1000)
        monkeypatch.setattr(driver, "MEMORY_CAP", held + 8000)
        with pytest.raises(LookupError):
            solve(inst)
        # two measures: the costs, the transport's reduced-cost buffer and
        # the mask of its lowest-cell rule, 17 bytes per combination, and one
        # tile of the cost build
        pair = random_instance(11, [400, 400])
        need = 17 * 400**2 + 8 * (2 + 3 * 2 + 2) * 1000
        monkeypatch.setattr(driver, "MEMORY_CAP", need - 1)
        with pytest.raises(CapacityError, match=f"{need} bytes"):
            solve(pair)
        monkeypatch.setattr(driver, "MEMORY_CAP", need)
        with pytest.raises(LookupError):
            solve(pair)

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


# Prints, for n = 2, 3 and 4 measures of three 2-D points scaled by argv[1],
# the objective solve and then solve_direct return, or the ContractError
# either raises, one line each.
ROUTES_AT_SCALE = """
import sys
import numpy as np
import wbary

for n in (2, 3, 4):
    for route in (lambda i: wbary.solve(i, wbary.SolveConfig(max_iter=50)), wbary.solve_direct):
        rng = np.random.default_rng(0)
        try:
            measures = tuple(
                wbary.DiscreteMeasure(rng.random((3, 2)) * float(sys.argv[1]), np.full(3, 1 / 3))
                for _ in range(n)
            )
            print(repr(route(wbary.Instance(measures, np.full(n, 1 / n))).objective))
        except wbary.ContractError as exc:
            print("ContractError:", exc)
"""


class TestOverflowingCoordinates:
    """Points whose squared distances overflow to inf are refused where the
    measures are built, for every route. An inf cost once made the transport
    simplex pivot forever, so each run has a time limit."""

    @staticmethod
    def routes_at(scale):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        return subprocess.run(
            [sys.executable, "-c", ROUTES_AT_SCALE, repr(scale)], capture_output=True,
            text=True, timeout=60, env=env, check=True,
        ).stdout.splitlines()

    def test_refused_on_every_route(self):
        lines = self.routes_at(1e155)
        assert len(lines) == 6
        assert all(line.startswith("ContractError: points must have squared norms")
                   for line in lines), lines

    def test_solved_just_inside_the_limit(self):
        lines = self.routes_at(1e150)
        objectives = [float(line) for line in lines]  # no error line
        assert len(objectives) == 6
        for n, (by_cg, direct) in zip((2, 3, 4), zip(objectives[::2], objectives[1::2])):
            assert 0 < direct < np.inf and abs(by_cg - direct) <= 1e-9 * direct, n
