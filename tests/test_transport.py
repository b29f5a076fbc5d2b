import tracemalloc

import numpy as np
import pytest

from oracles import DenseLP, plan_items, solve, transport_lp_arrays
from wbary import pricing, transport
from wbary.driver import SolveConfig, solve as solve_cg
from wbary.model import ContractError, DiscreteMeasure, Instance, Plan
from wbary.transport import solve_transportation


def random_balanced(rng, m, k):
    """Supplies, demands and costs of a random balanced problem."""
    supplies = rng.uniform(0.1, 1.0, size=m)
    supplies /= supplies.sum()
    demands = rng.uniform(0.1, 1.0, size=k)
    demands /= demands.sum()
    costs = rng.uniform(-2.0, 5.0, size=(m, k))
    return supplies, demands, costs


def uniform_integer(rng, m, k):
    """Uniform marginals and costs 0-4: many ties and zero-flow basic cells."""
    return (
        np.full(m, 1.0 / m), np.full(k, 1.0 / k),
        rng.integers(0, 5, size=(m, k)).astype(float),
    )


def flows_of(plan):
    """A plan's (flat cell, flow) pairs in the order it holds them."""
    return list(zip(plan.flows.index.tolist(), plan.flows.mass.tolist()))


def plan_residual(tp, plan):
    supplies, demands, _ = tp
    m, k = len(supplies), len(demands)
    rs = np.bincount(plan.flows.index // k, plan.flows.mass, m)
    cs = np.bincount(plan.flows.index % k, plan.flows.mass, k)
    return max(np.abs(rs - supplies).max(), np.abs(cs - demands).max())


def support_is_acyclic(plan, m, k):
    """Union-find over the bipartite support graph."""
    parent = list(range(m + k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for h in plan.flows.index.tolist():
        ra, rb = find(h // k), find(m + h % k)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


class TestExamples:
    def test_single_cell(self):
        plan = solve_transportation(np.array([1.0]), np.array([1.0]), np.array([[5.0]]))
        assert flows_of(plan) == [(0, 1.0)]
        assert plan.objective == pytest.approx(5.0)

    def test_identity_matching(self):
        plan = solve_transportation(
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        assert plan.objective == pytest.approx(0.0)
        assert plan.flows.index.tolist() == [0, 3]  # cells (0, 0) and (1, 1)

    def test_two_by_two_hand_solved(self):
        plan = solve_transportation(
            np.array([0.3, 0.7]),
            np.array([0.4, 0.6]),
            np.array([[1.0, 2.0], [3.0, 1.0]]),
        )
        assert plan.objective == pytest.approx(1.2, abs=1e-12)
        flows = dict(flows_of(plan))
        assert flows[0] == pytest.approx(0.3)  # cell (0, 0)
        assert flows[2] == pytest.approx(0.1)  # cell (1, 0)
        assert flows[3] == pytest.approx(0.6)  # cell (1, 1)

    def test_unbalanced_rejected(self):
        with pytest.raises(ContractError):
            solve_transportation(np.array([1.0]), np.array([0.9]), np.array([[1.0]]))

    def test_nonpositive_marginals_rejected(self):
        with pytest.raises(ContractError):
            solve_transportation(
                np.array([1.0, 0.0]), np.array([1.0]), np.array([[1.0], [1.0]])
            )


class TestAgainstSimplex:
    def test_500_random_instances(self):
        for make, top in ((random_balanced, 12), (uniform_integer, 20)):
            rng = np.random.default_rng(42)
            for trial in range(500):
                m = int(rng.integers(1, top + 1))
                k = int(rng.integers(1, top + 1))
                tp = make(rng, m, k)
                plan = solve_transportation(*tp)
                c, A, b = transport_lp_arrays(*tp)
                lp_sol = solve(DenseLP(c, A, b))
                where = f"{make.__name__} trial {trial}"
                assert abs(plan.objective - lp_sol.objective) <= 1e-9 * (
                    1 + abs(lp_sol.objective)
                ), where
                assert plan_residual(tp, plan) <= 1e-9, where
                assert len(plan.flows.index) <= m + k - 1, where
                assert support_is_acyclic(plan, m, k), where


class TestStructure:
    def test_negative_costs(self):
        plan = solve_transportation(
            np.array([0.6, 0.4]),
            np.array([0.5, 0.5]),
            np.array([[-5.0, -1.0], [-1.0, -10.0]]),
        )
        # mass 0.5 on (0,0), 0.1 on (0,1), 0.4 on (1,1) is optimal: -6.6
        assert plan.objective == pytest.approx(-6.6, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        tp = random_balanced(rng, 6, 7)
        p1 = solve_transportation(*tp)
        p2 = solve_transportation(*tp)
        assert flows_of(p1) == flows_of(p2)
        assert p1.objective == p2.objective

    def test_flows_and_basis_are_ascending_cells(self):
        tp = uniform_integer(np.random.default_rng(2), 5, 5)  # degenerate
        plan = solve_transportation(*tp)
        basis = plan.basis.index.tolist()
        assert plan.basis.index.dtype == plan.flows.index.dtype == np.int64
        assert len(basis) == 5 + 5 - 1 and basis == sorted(set(basis))
        # the flows are the basic cells with flow above FLOW_TOL, zero flows out
        assert flows_of(plan) == [(h, q) for h, q in plan_items(plan.basis) if q > 1e-15]
        assert len(plan.flows.index) < len(basis)

    def test_degenerate_equal_marginals(self):
        # Many ties: all supplies and demands equal.
        n = 5
        tp = (
            np.full(n, 1.0 / n),
            np.full(n, 1.0 / n),
            np.arange(n * n, dtype=float).reshape(n, n) % 7,
        )
        plan = solve_transportation(*tp)
        assert plan_residual(tp, plan) <= 1e-12
        assert len(plan.flows.index) <= 2 * n - 1

    @pytest.mark.parametrize("costs, flows", [
        (
            [[2, 0, 0, 0, 0, 2], [2, 1, 0, 0, 0, 1], [1, 1, 0, 0, 2, 2], [0, 0, 1, 1, 2, 1]],
            [(1, 0.16666666666666666), (2, 0.08333333333333331),
             (10, 0.16666666666666663), (11, 0.08333333333333334),
             (14, 0.08333333333333334), (15, 0.16666666666666666),
             (18, 0.16666666666666666), (23, 0.08333333333333331)],
        ),
        (
            [[2, 1, 2, 2], [1, 2, 2, 0], [0, 0, 0, 2], [2, 0, 1, 2], [0, 2, 0, 1], [2, 0, 1, 0]],
            [(1, 0.16666666666666666), (4, 0.08333333333333334),
             (7, 0.08333333333333329), (8, 0.16666666666666666),
             (13, 0.08333333333333331), (14, 0.08333333333333334),
             (18, 0.16666666666666666), (23, 0.16666666666666666)],
        ),
    ])
    def test_degenerate_plan_pinned(self, costs, flows):
        # Several optimal plans exist; the pivot rules pick this one, bit for
        # bit. Flows are at flat cells i * k + j.
        m, k = len(costs), len(costs[0])
        plan = solve_transportation(np.full(m, 1.0 / m), np.full(k, 1.0 / k),
                                    np.array(costs, dtype=float))
        assert flows_of(plan) == flows


    def test_lowest_cell_rule_matches_oracle(self, monkeypatch):
        # No problem here has BLAND_AFTER degenerate pivots in a row, so the
        # lowest-cell entering rule is forced on from the first pivot.
        monkeypatch.setattr(transport, "BLAND_AFTER", -1)
        rng = np.random.default_rng(9)
        for trial in range(100):
            m, k = (int(x) for x in rng.integers(1, 10, size=2))
            tp = uniform_integer(rng, m, k)
            plan = solve_transportation(*tp)
            lp_sol = solve(DenseLP(*transport_lp_arrays(*tp)))
            assert abs(plan.objective - lp_sol.objective) <= 1e-9, f"trial {trial}"
            assert plan_residual(tp, plan) <= 1e-12, f"trial {trial}"

    def test_one_reduced_cost_buffer(self, monkeypatch):
        # Beside the costs, allocated before tracing, a solve holds one m x k
        # buffer of reduced costs and, under the lowest-cell rule, its
        # one-byte mask: its peak stays under twice the costs' bytes. From
        # the northwest corner the lowest-cell rule takes tens of thousands
        # of pivots here, so both traced solves start from the optimal basis
        # of nearby costs, as pricing does.
        rng = np.random.default_rng(3)
        supplies, demands, costs = random_balanced(rng, 200, 200)
        basis = solve_transportation(supplies, demands, costs).basis
        costs += rng.uniform(0.0, 0.02, costs.shape)
        for bland_after in (transport.BLAND_AFTER, -1):
            monkeypatch.setattr(transport, "BLAND_AFTER", bland_after)
            tracemalloc.start()
            try:
                plan = solve_transportation(supplies, demands, costs, basis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert plan.pivots > 0
            assert peak < 2 * costs.nbytes, f"BLAND_AFTER = {bland_after}"


class TestWarmStart:
    def test_chains_of_costs_match_cold_and_oracle(self):
        # Each solve starts from the basis the solve before it returned, as
        # pricing does: same marginals, new costs.
        rng = np.random.default_rng(7)
        for trial in range(200):
            make = (random_balanced, uniform_integer)[trial % 2]
            m, k = (int(x) for x in rng.integers(1, 11, size=2))
            supplies, demands, _ = make(rng, m, k)
            basis = None
            for link in range(int(rng.integers(5, 11))):
                where = f"{make.__name__} trial {trial} link {link}"
                tp = (supplies, demands, make(rng, m, k)[2])
                given = None if basis is None else plan_items(basis)
                plan = solve_transportation(*tp, basis)
                # the given basis is not modified
                assert (basis is None) or plan_items(basis) == given, where
                cold = solve_transportation(*tp)
                assert abs(plan.objective - cold.objective) <= 1e-12 * (
                    1 + abs(cold.objective)
                ), where
                c, A, b = transport_lp_arrays(*tp)
                lp_sol = solve(DenseLP(c, A, b))
                assert abs(plan.objective - lp_sol.objective) <= 1e-9 * (
                    1 + abs(lp_sol.objective)
                ), where
                assert plan_residual(tp, plan) <= 1e-9, where
                assert len(plan.basis.index) == len(plan.basis.mass) == m + k - 1, where
                basis = plan.basis

    def test_optimal_basis_takes_no_pivot(self):
        tp = random_balanced(np.random.default_rng(3), 7, 5)
        cold = solve_transportation(*tp)
        assert cold.pivots > 0
        again = solve_transportation(*tp, cold.basis)
        assert again.pivots == 0
        assert flows_of(again) == flows_of(cold)
        assert plan_items(again.basis) == plan_items(cold.basis)

    def test_basis_order_does_not_matter(self):
        # The pivot rules read no cell order: the same basis with its cells
        # permuted gives the same plan, bit for bit, on every link of a chain.
        rng = np.random.default_rng(8)
        for trial in range(100):
            make = (random_balanced, uniform_integer)[trial % 2]
            m, k = (int(x) for x in rng.integers(2, 9, size=2))
            supplies, demands, costs = make(rng, m, k)
            basis = solve_transportation(supplies, demands, costs).basis
            for link in range(5):
                where = f"{make.__name__} trial {trial} link {link}"
                costs = make(rng, m, k)[2]
                order = rng.permutation(m + k - 1)
                shuffled = Plan(basis.index[order], basis.mass[order])
                plan = solve_transportation(supplies, demands, costs, basis)
                other = solve_transportation(supplies, demands, costs, shuffled)
                assert flows_of(other) == flows_of(plan), where
                assert plan_items(other.basis) == plan_items(plan.basis), where
                assert other.objective == plan.objective, where
                assert other.pivots == plan.pivots, where
                basis = plan.basis

    def test_pricing_of_a_deep_instance_pivots_less(self, monkeypatch):
        # `wbary gen --n 5 --size 8 --seed 0`, solved with the large pair:
        # the pricings of one solve against the same cost matrices solved cold.
        rng = np.random.default_rng(0)
        measures = tuple(DiscreteMeasure(rng.random((8, 2)), np.full(8, 1 / 8)) for _ in range(5))
        inst = Instance(measures, np.full(5, 1 / 5))
        original = pricing.solve_pricing
        priced = []

        def recording(state, partition, supplies, demands, basis=None):
            plan = original(state, partition, supplies, demands, basis)
            costs = state.best.reshape(len(supplies), len(demands)).copy()
            priced.append(((supplies, demands, costs), plan.pivots))
            return plan

        monkeypatch.setattr(pricing, "solve_pricing", recording)
        res = solve_cg(inst, SolveConfig(pair_variant="large"))
        assert res.converged and len(priced) == res.pricing_calls > 50
        warm = sum(pivots for _, pivots in priced)
        cold = sum(solve_transportation(*tp).pivots for tp, _ in priced)
        assert warm <= 0.3 * cold
        print(f"\ntransport pivots per pricing: warm {warm / len(priced):.2f}, "
              f"cold {cold / len(priced):.2f}")


class TestBadWarmBasis:
    @pytest.fixture
    def tp_and_basis(self):
        tp = random_balanced(np.random.default_rng(5), 4, 3)
        basis = solve_transportation(*tp).basis
        return tp, Plan(basis.index.copy(), basis.mass.copy())

    def test_wrong_cell_count(self, tp_and_basis):
        tp, basis = tp_and_basis
        with pytest.raises(ContractError, match="cells"):
            solve_transportation(*tp, Plan(basis.index[1:], basis.mass[1:]))

    def test_cell_out_of_range(self, tp_and_basis):
        tp, basis = tp_and_basis
        for cell in (12, 100, -1):  # 12 = m * k, the first flat cell past the matrix
            bad = Plan(basis.index.copy(), basis.mass)
            bad.index[0] = cell
            with pytest.raises(ContractError, match="outside"):
                solve_transportation(*tp, bad)

    def test_non_integer_cells(self, tp_and_basis):
        tp, basis = tp_and_basis
        for index in (basis.index.astype(float), np.append(2.5, basis.index[1:])):
            with pytest.raises(ContractError, match="integers"):
                solve_transportation(*tp, Plan(index, basis.mass))

    def test_negative_flow(self, tp_and_basis):
        tp, basis = tp_and_basis
        basis.mass[0] = -1e-3
        with pytest.raises(ContractError, match="negative"):
            solve_transportation(*tp, basis)

    def test_nan_flow(self, tp_and_basis):
        tp, basis = tp_and_basis
        basis.mass[0] = np.nan
        with pytest.raises(ContractError, match="negative"):
            solve_transportation(*tp, basis)

    def test_index_and_mass_lengths_differ(self, tp_and_basis):
        tp, basis = tp_and_basis
        with pytest.raises(ContractError, match="one flow per cell"):
            solve_transportation(*tp, Plan(basis.index, basis.mass[:-1]))

    def test_basis_from_other_marginals(self, tp_and_basis):
        tp, _ = tp_and_basis
        supplies, demands, _ = random_balanced(np.random.default_rng(6), 4, 3)
        with pytest.raises(ContractError, match="marginals"):
            solve_transportation(*tp, solve_transportation(supplies, demands, tp[2]).basis)

    def test_duplicated_cell(self):
        # Cell (0, 0) twice, its flow split between the copies: three cells
        # that meet the marginals but span only two of the four nodes' edges.
        tp = (np.full(2, 0.5), np.full(2, 0.5), np.zeros((2, 2)))
        basis = Plan(np.array([0, 0, 3]), np.array([0.25, 0.25, 0.5]))
        with pytest.raises(ContractError, match="disconnected"):
            solve_transportation(*tp, basis)

    def test_disconnected_basis(self):
        # Two 2 x 2 blocks and a cycle inside the first: m + k - 1 cells that
        # meet the marginals but do not span the rows and columns.
        tp = (np.full(4, 0.25), np.full(4, 0.25), np.zeros((4, 4)))
        # cells (0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3) and (3, 3)
        basis = Plan(np.array([0, 1, 4, 5, 10, 11, 15]),
                     np.array([0.125, 0.125, 0.125, 0.125, 0.25, 0.0, 0.25]))
        with pytest.raises(ContractError, match="disconnected"):
            solve_transportation(*tp, basis)
