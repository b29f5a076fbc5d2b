"""End-to-end acceptance suite.

Each test covers one verification criterion at its stated tolerance and
prints a PASS line on success (run with ``pytest -s`` to see them). The two
scale tests near the end allocate hundreds of megabytes and take most of the
module's time; the master tests at the very end (`[10]*5`, `[20]*4` and
`[12]*5`) take about a second each, and everything else is quick.
"""

import numpy as np
import pytest

from oracles import (
    DenseLP,
    approx_transport_cost,
    assignment_best,
    barycenter_lp_arrays,
    column_support,
    highs_optimum,
    plan_cost,
    plan_items,
    satisfies_marginals,
    solve as lp_solve,
    transport_lp_arrays,
    unit_rank,
)
from wbary import driver
from wbary.driver import STEP_LABELS, SolveConfig, solve, solve_direct
from wbary.initial import greedy_vertex, repair_to_vertex, two_approx
from wbary.model import (
    CapacityError,
    DiscreteMeasure,
    Instance,
    make_strides,
)
from wbary.transport import northwest_corner, solve_transportation

VARIANTS = [
    (start, pair) for start in ("greedy", "2app") for pair in ("any", "large", "small")
]


def make_instance(seed, sizes, dim=2, uniform=False):
    rng = np.random.default_rng(seed)
    measures = []
    for s in sizes:
        if uniform:
            masses = np.full(s, 1.0 / s)
        else:
            u = rng.uniform(0.2, 1.0, s)
            masses = u / u.sum()
        measures.append(DiscreteMeasure(rng.random((s, dim)), masses))
    n = len(sizes)
    return Instance(tuple(measures), np.full(n, 1.0 / n))


def shapes_for_oracle_runs(count, max_total=50_000):
    """Deterministic mix of 3-5 measure shapes with bounded column counts."""
    rng = np.random.default_rng(2718)
    shapes = []
    while len(shapes) < count:
        n = int(rng.integers(3, 6))
        sizes = rng.integers(2, 10, size=n).tolist()
        total = int(np.prod(sizes))
        if total <= max_total:
            shapes.append(sizes)
    return shapes


def test_criterion_1_six_variants_match_direct_solutions():
    shapes = shapes_for_oracle_runs(20)
    worst = 0.0
    for idx, sizes in enumerate(shapes):
        inst = make_instance(1000 + idx, sizes, uniform=(idx % 3 == 0))
        ref = solve_direct(inst)
        for start, pair in VARIANTS:
            res = solve(inst, SolveConfig(start=start, pair_variant=pair, tol=1e-6))
            assert res.converged, (sizes, start, pair)
            gap = abs(res.objective - ref.objective) / (1.0 + abs(ref.objective))
            worst = max(worst, gap)
            assert gap <= 1e-7, (sizes, start, pair, gap)
    print(f"\nC1 PASS: 20 instances x 6 variants within 1e-7 of direct (worst {worst:.2e})")


EXPECTED_BLOCK_MATRIX = [
    "111111111111111111000000000000000000",
    "000000000000000000111111111111111111",
    "111111000000000000111111000000000000",
    "000000111111000000000000111111000000",
    "000000000000111111000000000000111111",
    "111000111000111000111000111000111000",
    "000111000111000111000111000111000111",
    "100100100100100100100100100100100100",
    "010010010010010010010010010010010010",
    "001001001001001001001001001001001001",
]

EXPECTED_UNIQUE_COLUMNS = [
    "111000",
    "000111",
    "100100",
    "010010",
    "001001",
]


def test_criterion_2_column_pattern_is_bit_exact():
    st = make_strides([2, 3, 2, 3])
    built = np.zeros((10, 36), dtype=int)
    for h in range(36):
        built[list(column_support(h, st)), h] = 1
    expected = np.array([[int(ch) for ch in row] for row in EXPECTED_BLOCK_MATRIX])
    assert np.array_equal(built, expected)

    # Rows of the two leading measures: 6 unique column patterns, each
    # repeated 6 times over contiguous index ranges.
    pair_rows = built[:5]
    n_u, n_d = 6, 6
    uniques = np.array([[int(ch) for ch in row] for row in EXPECTED_UNIQUE_COLUMNS])
    for j in range(n_u):
        block = pair_rows[:, j * n_d : (j + 1) * n_d]
        assert np.array_equal(block, np.repeat(uniques[:, j : j + 1], n_d, axis=1))
    assert np.array_equal(np.unique(pair_rows.T, axis=0), np.unique(uniques.T, axis=0))
    print("\nC2 PASS: 10x36 block matrix and 6x6 unique-column compression bit-exact")


def test_criterion_3_greedy_support_bounds_and_rank():
    rng = np.random.default_rng(31415)
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        sizes = rng.integers(1, 9, size=n).tolist()
        inst = make_instance(20_000 + trial, sizes, uniform=bool(rng.integers(2)))
        st = inst.strides
        w = greedy_vertex(inst)
        L = len(w.index)
        assert max(sizes) <= L <= sum(sizes) - n + 1, (sizes, L)
        assert satisfies_marginals(w, inst, st)
        cols = np.zeros((st.row_offsets[-1], L))
        for jcol, (h, _) in enumerate(plan_items(w)):
            cols[list(column_support(h, st)), jcol] = 1.0
        assert np.linalg.matrix_rank(cols) == L, (sizes, L)
    print("\nC3 PASS: greedy support bounds and vertex rank on 1000 instances")


def test_criterion_4_relocation_cost_within_factor_two():
    rng = np.random.default_rng(9001)
    ratios = []
    for trial in range(200):
        n = int(rng.integers(3, 5))
        sizes = rng.integers(2, 5 if n == 3 else 4, size=n).tolist()
        inst = make_instance(40_000 + trial, sizes, uniform=(trial % 4 == 0))
        apx = two_approx(inst)
        cost = approx_transport_cost(apx, inst)
        opt = solve_direct(inst).objective
        assert cost >= opt - 1e-9, (sizes, cost, opt)
        assert cost <= 2.0 * opt + 1e-9, (sizes, cost, opt)
        # the start both routes take from it: distinct, independent
        # combinations that meet the marginals and cost no more
        w = repair_to_vertex(apx, inst)
        assert np.all(np.diff(w.index) > 0), sizes
        assert unit_rank(w, inst.strides) == w.index.size, sizes
        assert satisfies_marginals(w, inst, inst.strides), sizes
        assert plan_cost(w, inst) <= cost + 1e-9, sizes
        if opt > 1e-12:
            ratios.append(cost / opt)
    print(
        f"\nC4 PASS: 200 instances, cost ratio in [1, 2], vertex start within it "
        f"(max observed {max(ratios):.4f})"
    )


def test_criterion_5_convergence_trace_shape():
    inst = make_instance(0, [5, 5, 5, 5], uniform=True)
    ref = solve_direct(inst)
    res = solve(inst, SolveConfig(start="greedy", pair_variant="large", tol=1e-6))
    assert res.converged
    objs = [t.rm_objective for t in res.trace]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-9  # nonincreasing
    # initial plateau: the objective does not move on the first iterations
    assert abs(objs[1] - objs[0]) <= 1e-12 * (1.0 + abs(objs[0]))
    first_move = next(
        (i for i, v in enumerate(objs) if abs(v - objs[0]) > 1e-12), len(objs)
    )
    assert first_move >= 2
    err = abs(res.objective - ref.objective)
    assert err <= 1e-6
    print(
        f"\nC5 PASS: nonincreasing trace, plateau of {first_move} iterations, "
        f"final error {err:.1e}"
    )


@pytest.fixture(scope="module")
def memory_scale_runs():
    # 21 binary measures: about 2.1e6 combinations, but only 42 constraint rows.
    sizes = [2] * 21
    inst = make_instance(99, sizes, uniform=False)
    cg = solve(inst, SolveConfig(pair_variant="large"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "DIRECT_MAX_COMBINATIONS", 4_000_000)
        direct = solve_direct(inst)
    return inst, cg, direct


def test_criterion_6_memory_footprint_ratio(memory_scale_runs):
    inst, cg, direct = memory_scale_runs
    n = inst.n
    total = cg.n_combinations
    assert total >= 2_000_000
    assert abs(cg.objective - direct.objective) <= 1e-7 * (1 + direct.objective)
    # column generation: at most 4 combination-length real vectors plus the
    # master's per-column storage
    master_bytes = 8 * (sum(inst.sizes) + 1) * (cg.iterations + 1)
    assert cg.peak_memory_bytes <= 4 * 8 * total + master_bytes
    # the direct route must hold at least one 64-bit entry per measure per column
    assert direct.peak_memory_bytes >= n * 8 * total
    ratio = cg.peak_memory_bytes / direct.peak_memory_bytes
    assert ratio <= 0.1
    print(
        f"\nC6 PASS: N={total}, CG {cg.peak_memory_bytes/1e6:.0f} MB vs "
        f"direct {direct.peak_memory_bytes/1e6:.0f} MB (ratio {ratio:.3f})"
    )


@pytest.fixture(scope="module")
def large_instance_run():
    sizes = [4] * 11 + [3]  # 12,582,912 combinations
    inst = make_instance(2024, sizes, uniform=False)
    res = solve(inst, SolveConfig(pair_variant="large"))
    return inst, res


def test_criterion_7_large_instance_solves_where_direct_refuses(large_instance_run):
    inst, res = large_instance_run
    assert res.n_combinations >= 10_000_000
    assert res.converged
    assert res.trace[-1].pricing_objective >= -1e-6
    assert sum(p.mass for p in res.barycenter) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(CapacityError):
        solve_direct(inst)
    # column generation holds less than one byte per combination
    assert res.peak_memory_bytes < res.n_combinations
    print(
        f"\nC7 PASS: N={res.n_combinations} converged in {res.iterations} iterations "
        f"({res.timings['total']:.0f} s), holding {res.peak_memory_bytes / 1e6:.1f} MB; "
        f"direct solve refused at default cap"
    )


def test_criterion_8_reduced_cost_updates_dominate(large_instance_run):
    _, res = large_instance_run
    assert res.n_combinations >= 1_000_000
    per_iter = sum(res.timings[label] for label in STEP_LABELS)
    heavy = res.timings["update-reduced-costs"] + res.timings["calc-best-costs"]
    share = heavy / per_iter
    assert share >= 0.5
    print(f"\nC8 PASS: update + best-cost share of iteration time {share:.1%}")


def test_criterion_9_kernel_differential_checks():
    rng = np.random.default_rng(55)
    for trial in range(500):
        m = int(rng.integers(1, 13))
        k = int(rng.integers(1, 13))
        supplies = rng.uniform(0.1, 1.0, m)
        supplies /= supplies.sum()
        demands = rng.uniform(0.1, 1.0, k)
        demands /= demands.sum()
        costs = rng.uniform(-2.0, 5.0, (m, k))
        plan = solve_transportation(costs, northwest_corner(supplies, demands))
        c, A, b = transport_lp_arrays(supplies, demands, costs)
        ref = lp_solve(DenseLP(c, A, b))
        assert abs(plan.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))

    for trial in range(200):
        costs = rng.integers(0, 50, size=(3, 3)).astype(float)
        A = np.zeros((6, 9))
        for i in range(3):
            A[i, 3 * i : 3 * i + 3] = 1.0
            A[3 + i, i::3] = 1.0
        sol = lp_solve(DenseLP(costs.ravel(), A, np.ones(6)))
        assert abs(sol.objective - assignment_best(costs)) <= 1e-8
    print(
        "\nC9 PASS: transportation vs simplex on 500 instances (1e-9); "
        "simplex vs assignment enumeration on 200 instances (1e-8)"
    )


def test_master_survives_small_pivots_on_ten_by_five_seed_1():
    # The instance `wbary gen --n 5 --size 10 --seed 1` writes. Its master
    # re-solves meet pivot elements many orders of magnitude below the largest
    # entry of their direction; pivoting on one through an updated inverse,
    # without re-inverting first, ruins the basis.
    inst = make_instance(1, [10] * 5, uniform=True)
    res = solve(inst)
    assert res.converged
    ref = highs_optimum(
        *barycenter_lp_arrays(
            [m.points for m in inst.measures],
            [m.masses for m in inst.measures],
            inst.lambdas,
        )
    )
    assert abs(res.objective - ref) <= 1e-9
    print(f"\n[10]*5 seed 1 PASS: {res.iterations} iterations, objective {res.objective!r}")


@pytest.mark.parametrize(
    "sizes, seed",
    [([20] * 4, 0), ([20] * 4, 1), ([20] * 4, 2), ([20] * 4, 3), ([12] * 5, 0)],
)
def test_smoothed_pricing_converges_on_hard_uniform_instances(sizes, seed):
    # The instances `wbary gen --n N --size S --seed SEED` writes. Priced at the
    # raw master duals, [20]*4 seeds 0, 2 and 3 end in `basic solution went
    # negative`; smoothed duals reach the HiGHS optimum in a few hundred master
    # solves (about 1 s each).
    inst = make_instance(seed, sizes, uniform=True)
    res = solve(inst)
    assert res.converged
    last = res.trace[-1]
    assert last.rm_objective - last.lb <= SolveConfig().tol
    ref = highs_optimum(
        *barycenter_lp_arrays(
            [m.points for m in inst.measures],
            [m.masses for m in inst.measures],
            inst.lambdas,
        )
    )
    assert abs(res.objective - ref) <= 1e-9
    print(
        f"\n{sizes[0]}^{len(sizes)} seed {seed} PASS: {res.iterations} master solves, "
        f"{res.pricing_calls} pricings, objective {res.objective!r}"
    )
