import tracemalloc

import numpy as np
import pytest

from oracles import (
    approx_transport_cost,
    column_support,
    combination_cost,
    digits_of,
    plan_items,
    satisfies_marginals,
)
from wbary.driver import solve_direct
from wbary.initial import (
    ApproxBarycenter,
    greedy_vertex,
    relocation_bytes,
    repair_to_vertex,
    two_approx,
)
from wbary.master import init_rm
from wbary.model import (
    ContractError,
    DiscreteMeasure,
    Instance,
    make_strides,
)


def random_instance(rng, sizes, dim=2, uniform=False):
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


def support_columns_rank(w, strides):
    rows = strides.row_offsets[-1]
    cols = np.zeros((rows, len(w.index)))
    for jcol, (h, _) in enumerate(plan_items(w)):
        cols[list(column_support(h, strides)), jcol] = 1.0
    return np.linalg.matrix_rank(cols)


class TestGreedy:
    def test_hand_executed_two_measures(self):
        m1 = DiscreteMeasure(np.zeros((2, 1)), np.array([0.5, 0.5]))
        m2 = DiscreteMeasure(np.ones((3, 1)), np.array([0.25, 0.25, 0.5]))
        inst = Instance((m1, m2), np.array([0.5, 0.5]))
        st = make_strides(inst.sizes)
        assert st.suffix_products == (3, 1)
        w = greedy_vertex(inst, st)
        assert plan_items(w) == [
            (0, pytest.approx(0.25)),
            (1, pytest.approx(0.25)),
            (5, pytest.approx(0.5)),
        ]
        assert 3 <= len(w.index) <= 4

    def test_single_measure(self):
        m = DiscreteMeasure(np.arange(8.0).reshape(4, 2), np.array([0.1, 0.2, 0.3, 0.4]))
        inst = Instance((m,), np.array([1.0]))
        st = make_strides(inst.sizes)
        w = greedy_vertex(inst, st)
        assert len(w.index) == 4
        for h, q in plan_items(w):
            assert q == pytest.approx(m.masses[h])

    def test_identical_equal_mass_measures_synchronize(self):
        pts = np.arange(10.0).reshape(5, 2)
        m = DiscreteMeasure(pts, np.full(5, 0.2))
        inst = Instance((m, m, m), np.array([0.3, 0.3, 0.4]))
        st = make_strides(inst.sizes)
        w = greedy_vertex(inst, st)
        assert len(w.index) == 5
        for h, q in plan_items(w):
            digits = digits_of(h, st.sizes)
            assert len(set(digits)) == 1  # (j, j, j)
            assert q == pytest.approx(0.2)

    def test_bounds_feasibility_and_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            sizes = rng.integers(1, 7, size=n).tolist()
            inst = random_instance(rng, sizes, uniform=bool(rng.integers(2)))
            st = make_strides(inst.sizes)
            w = greedy_vertex(inst, st)
            L = len(w.index)
            assert max(sizes) <= L <= sum(sizes) - n + 1
            assert satisfies_marginals(w, inst, st)
            assert support_columns_rank(w, st) == L  # vertex property


class TestTwoApprox:
    def test_single_measure_is_itself(self):
        m = DiscreteMeasure(np.arange(6.0).reshape(3, 2), np.array([0.2, 0.3, 0.5]))
        inst = Instance((m,), np.array([1.0]))
        apx = two_approx(inst)
        apx.validate(inst)
        assert approx_transport_cost(apx, inst) == pytest.approx(0.0, abs=1e-12)
        assert len(apx.mass) == 3

    def test_identical_measures_cost_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 2.0]])
        m = DiscreteMeasure(pts, np.array([0.5, 0.25, 0.25]))
        inst = Instance((m, m, m), np.full(3, 1 / 3))
        apx = two_approx(inst)
        apx.validate(inst)
        assert approx_transport_cost(apx, inst) == pytest.approx(0.0, abs=1e-10)
        assert len(apx.mass) == 3

    def test_relocation_bytes_bound_the_peak(self):
        inst = random_instance(np.random.default_rng(0), [8] * 5, uniform=True)
        tracemalloc.start()
        try:
            two_approx(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= relocation_bytes(inst.sizes)

    def test_ratio_within_factor_two(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            inst = random_instance(rng, rng.integers(2, 4, size=3).tolist())
            apx = two_approx(inst)
            apx.validate(inst)
            opt = solve_direct(inst).objective
            cost = approx_transport_cost(apx, inst)
            assert cost >= opt - 1e-9
            assert cost <= 2.0 * opt + 1e-9


class TestRepair:
    def test_repair_preserves_feasibility_and_never_costs_more(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, rng.integers(2, 5, size=n).tolist())
            st = make_strides(inst.sizes)
            apx = two_approx(inst)
            w = repair_to_vertex(apx, inst, st)
            assert w.mass.sum() == pytest.approx(1.0, abs=1e-9)
            assert satisfies_marginals(w, inst, st)
            repaired_cost = sum(
                q * _combo_cost(h, st, inst) for h, q in plan_items(w)
            )
            assert repaired_cost <= approx_transport_cost(apx, inst) + 1e-9

    def test_single_measure_repair(self):
        m = DiscreteMeasure(np.arange(6.0).reshape(3, 2), np.array([0.2, 0.3, 0.5]))
        inst = Instance((m,), np.array([1.0]))
        st = make_strides(inst.sizes)
        w = repair_to_vertex(two_approx(inst), inst, st)
        assert plan_items(w) == [
            (0, pytest.approx(0.2)),
            (1, pytest.approx(0.3)),
            (2, pytest.approx(0.5)),
        ]

    def test_support_of_repair_stays_small(self):
        # Three measures with 10/10/11 equal-mass points: the repaired support
        # must stay within the generic vertex bound sum sizes - n + 1 = 29.
        rng = np.random.default_rng(5)
        inst = random_instance(rng, [10, 10, 11], uniform=True)
        st = make_strides(inst.sizes)
        apx = two_approx(inst)
        w = repair_to_vertex(apx, inst, st)
        assert satisfies_marginals(w, inst, st)
        assert len(w.index) <= 29

    def test_one_full_point_repairs_to_the_greedy_vertex(self):
        # one support point holding all the mass, whose plans are the
        # measures' masses: the repair runs the greedy sweep
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, rng.integers(1, 6, size=n).tolist())
            st = make_strides(inst.sizes)
            apx = ApproxBarycenter(
                support=np.zeros((1, 2)),
                mass=np.array([1.0]),
                plans=[m.masses[None, :] for m in inst.measures],
            )
            repaired = repair_to_vertex(apx, inst, st)
            greedy = greedy_vertex(inst, st)
            assert np.array_equal(repaired.index, greedy.index)
            assert np.array_equal(repaired.mass, greedy.mass)

    def test_combinations_placed_twice_merge(self):
        # two half-mass support points with the same half plans place every
        # combination twice: the repair holds each once with both masses
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            inst = random_instance(rng, rng.integers(1, 6, size=n).tolist())
            st = make_strides(inst.sizes)
            apx = ApproxBarycenter(
                support=np.zeros((2, 2)),
                mass=np.array([0.5, 0.5]),
                plans=[np.vstack([m.masses / 2, m.masses / 2]) for m in inst.measures],
            )
            repaired = repair_to_vertex(apx, inst, st)
            greedy = greedy_vertex(inst, st)
            assert np.unique(repaired.index).size == repaired.index.size
            assert np.array_equal(repaired.index, greedy.index)
            assert np.array_equal(repaired.mass, greedy.mass)
            init_rm(repaired, inst, st)  # raises on a vertex off the master rows

    @pytest.mark.parametrize("plan, match", [
        ([[0.5, 0.0]], "support point 0 sends"),  # sends only half the held mass
        ([[1.0, 0.0]], "marginals violated"),  # the measure holds 0.5 at each point
        ([[1.0]], "plans do not match"),  # one column for two points
    ], ids=["row-sum", "marginal", "shape"])
    def test_inconsistent_plans_rejected(self, plan, match):
        m = DiscreteMeasure(np.zeros((2, 2)), np.array([0.5, 0.5]))
        inst = Instance((m,), np.array([1.0]))
        bad = ApproxBarycenter(
            support=np.zeros((1, 2)),
            mass=np.array([1.0]),
            plans=[np.array(plan)],
        )
        with pytest.raises(ContractError, match=match):
            repair_to_vertex(bad, inst, make_strides(inst.sizes))


def _combo_cost(h, strides, inst):
    points = [m.points for m in inst.measures]
    return combination_cost(digits_of(h, strides.sizes), points, inst.lambdas)
