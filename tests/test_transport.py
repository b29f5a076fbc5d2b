import numpy as np
import pytest

from oracles import DenseLP, solve, transport_lp_arrays
from wbary import pricing
from wbary.driver import SolveConfig, solve as solve_cg
from wbary.model import ContractError, DiscreteMeasure, Instance
from wbary.transport import TransportationProblem, solve_transportation


def random_balanced(rng, m, k):
    supplies = rng.uniform(0.1, 1.0, size=m)
    supplies /= supplies.sum()
    demands = rng.uniform(0.1, 1.0, size=k)
    demands /= demands.sum()
    costs = rng.uniform(-2.0, 5.0, size=(m, k))
    return TransportationProblem(supplies, demands, costs)


def uniform_integer(rng, m, k):
    """Uniform marginals and costs 0-4: many ties and zero-flow basic cells."""
    return TransportationProblem(
        np.full(m, 1.0 / m), np.full(k, 1.0 / k),
        rng.integers(0, 5, size=(m, k)).astype(float),
    )


def plan_residual(tp, plan):
    rs = np.zeros(len(tp.supplies))
    cs = np.zeros(len(tp.demands))
    for i, j, q in plan.flows:
        rs[i] += q
        cs[j] += q
    return max(
        np.abs(rs - tp.supplies).max(),
        np.abs(cs - tp.demands).max(),
    )


def support_is_acyclic(plan, m, k):
    """Union-find over the bipartite support graph."""
    parent = list(range(m + k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in plan.flows:
        ra, rb = find(i), find(m + j)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


class TestExamples:
    def test_single_cell(self):
        tp = TransportationProblem(
            np.array([1.0]), np.array([1.0]), np.array([[5.0]])
        )
        plan = solve_transportation(tp)
        assert plan.flows == [(0, 0, 1.0)]
        assert plan.objective == pytest.approx(5.0)

    def test_identity_matching(self):
        tp = TransportationProblem(
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        plan = solve_transportation(tp)
        assert plan.objective == pytest.approx(0.0)
        assert {(i, j) for i, j, _ in plan.flows} == {(0, 0), (1, 1)}

    def test_two_by_two_hand_solved(self):
        tp = TransportationProblem(
            np.array([0.3, 0.7]),
            np.array([0.4, 0.6]),
            np.array([[1.0, 2.0], [3.0, 1.0]]),
        )
        plan = solve_transportation(tp)
        assert plan.objective == pytest.approx(1.2, abs=1e-12)
        flows = {(i, j): q for i, j, q in plan.flows}
        assert flows[(0, 0)] == pytest.approx(0.3)
        assert flows[(1, 0)] == pytest.approx(0.1)
        assert flows[(1, 1)] == pytest.approx(0.6)

    def test_unbalanced_rejected(self):
        with pytest.raises(ContractError):
            solve_transportation(
                TransportationProblem(
                    np.array([1.0]), np.array([0.9]), np.array([[1.0]])
                )
            )

    def test_nonpositive_marginals_rejected(self):
        with pytest.raises(ContractError):
            solve_transportation(
                TransportationProblem(
                    np.array([1.0, 0.0]), np.array([1.0]), np.array([[1.0], [1.0]])
                )
            )


class TestAgainstSimplex:
    def test_500_random_instances(self):
        for make, top in ((random_balanced, 12), (uniform_integer, 20)):
            rng = np.random.default_rng(42)
            for trial in range(500):
                m = int(rng.integers(1, top + 1))
                k = int(rng.integers(1, top + 1))
                tp = make(rng, m, k)
                plan = solve_transportation(tp)
                c, A, b = transport_lp_arrays(tp.supplies, tp.demands, tp.costs)
                lp_sol = solve(DenseLP(c, A, b))
                where = f"{make.__name__} trial {trial}"
                assert lp_sol.status == "optimal", where
                assert abs(plan.objective - lp_sol.objective) <= 1e-9 * (
                    1 + abs(lp_sol.objective)
                ), where
                assert plan_residual(tp, plan) <= 1e-9, where
                assert len(plan.flows) <= m + k - 1, where
                assert support_is_acyclic(plan, m, k), where


class TestStructure:
    def test_negative_costs(self):
        tp = TransportationProblem(
            np.array([0.6, 0.4]),
            np.array([0.5, 0.5]),
            np.array([[-5.0, -1.0], [-1.0, -10.0]]),
        )
        plan = solve_transportation(tp)
        # mass 0.5 on (0,0), 0.1 on (0,1), 0.4 on (1,1) is optimal: -6.6
        assert plan.objective == pytest.approx(-6.6, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        tp = random_balanced(rng, 6, 7)
        p1 = solve_transportation(tp)
        p2 = solve_transportation(tp)
        assert p1.flows == p2.flows
        assert p1.objective == p2.objective

    def test_degenerate_equal_marginals(self):
        # Many ties: all supplies and demands equal.
        n = 5
        tp = TransportationProblem(
            np.full(n, 1.0 / n),
            np.full(n, 1.0 / n),
            np.arange(n * n, dtype=float).reshape(n, n) % 7,
        )
        plan = solve_transportation(tp)
        assert plan_residual(tp, plan) <= 1e-12
        assert len(plan.flows) <= 2 * n - 1

    @pytest.mark.parametrize("costs, flows", [
        (
            [[2, 0, 0, 0, 0, 2], [2, 1, 0, 0, 0, 1], [1, 1, 0, 0, 2, 2], [0, 0, 1, 1, 2, 1]],
            [(0, 1, 0.16666666666666666), (0, 2, 0.08333333333333331),
             (1, 4, 0.16666666666666663), (1, 5, 0.08333333333333334),
             (2, 2, 0.08333333333333334), (2, 3, 0.16666666666666666),
             (3, 0, 0.16666666666666666), (3, 5, 0.08333333333333331)],
        ),
        (
            [[2, 1, 2, 2], [1, 2, 2, 0], [0, 0, 0, 2], [2, 0, 1, 2], [0, 2, 0, 1], [2, 0, 1, 0]],
            [(0, 1, 0.16666666666666666), (1, 0, 0.08333333333333334),
             (1, 3, 0.08333333333333329), (2, 0, 0.16666666666666666),
             (3, 1, 0.08333333333333331), (3, 2, 0.08333333333333334),
             (4, 2, 0.16666666666666666), (5, 3, 0.16666666666666666)],
        ),
    ])
    def test_degenerate_plan_pinned(self, costs, flows):
        # Several optimal plans exist; the pivot rules pick this one, bit for bit.
        m, k = len(costs), len(costs[0])
        tp = TransportationProblem(np.full(m, 1.0 / m), np.full(k, 1.0 / k),
                                   np.array(costs, dtype=float))
        assert solve_transportation(tp).flows == flows


class TestWarmStart:
    def test_chains_of_costs_match_cold_and_oracle(self):
        # Each solve starts from the basis the solve before it returned, as
        # pricing does: same marginals, new costs.
        rng = np.random.default_rng(7)
        for trial in range(200):
            make = (random_balanced, uniform_integer)[trial % 2]
            m, k = (int(x) for x in rng.integers(1, 11, size=2))
            tp = make(rng, m, k)
            basis = None
            for link in range(int(rng.integers(5, 11))):
                where = f"{make.__name__} trial {trial} link {link}"
                tp.costs = make(rng, m, k).costs
                given = None if basis is None else dict(basis)
                plan = solve_transportation(tp, basis)
                assert basis == given, where  # the given basis is not modified
                cold = solve_transportation(tp)
                assert abs(plan.objective - cold.objective) <= 1e-12 * (
                    1 + abs(cold.objective)
                ), where
                c, A, b = transport_lp_arrays(tp.supplies, tp.demands, tp.costs)
                lp_sol = solve(DenseLP(c, A, b))
                assert abs(plan.objective - lp_sol.objective) <= 1e-9 * (
                    1 + abs(lp_sol.objective)
                ), where
                assert plan_residual(tp, plan) <= 1e-9, where
                assert len(plan.basis) == m + k - 1, where
                basis = plan.basis

    def test_optimal_basis_takes_no_pivot(self):
        tp = random_balanced(np.random.default_rng(3), 7, 5)
        cold = solve_transportation(tp)
        assert cold.pivots > 0
        again = solve_transportation(tp, cold.basis)
        assert again.pivots == 0
        assert again.flows == cold.flows
        assert again.basis == cold.basis

    def test_pricing_of_a_deep_instance_pivots_less(self, monkeypatch):
        # `wbary gen --n 5 --size 8 --seed 0`, solved with the large pair:
        # the pricings of one solve against the same cost matrices solved cold.
        rng = np.random.default_rng(0)
        measures = tuple(DiscreteMeasure(rng.random((8, 2)), np.full(8, 1 / 8)) for _ in range(5))
        inst = Instance(measures, np.full(5, 1 / 5))
        original = pricing.solve_pricing
        priced = []

        def recording(state, partition, supplies, demands, basis=None):
            out = original(state, partition, supplies, demands, basis)
            costs = state.best.reshape(len(supplies), len(demands)).copy()
            priced.append((TransportationProblem(supplies, demands, costs), out[1].pivots))
            return out

        monkeypatch.setattr(pricing, "solve_pricing", recording)
        res = solve_cg(inst, SolveConfig(pair_variant="large"))
        assert res.converged and len(priced) == res.pricing_calls > 50
        warm = sum(pivots for _, pivots in priced)
        cold = sum(solve_transportation(tp).pivots for tp, _ in priced)
        assert warm <= 0.3 * cold
        print(f"\ntransport pivots per pricing: warm {warm / len(priced):.2f}, "
              f"cold {cold / len(priced):.2f}")


class TestBadWarmBasis:
    @pytest.fixture
    def tp_and_basis(self):
        tp = random_balanced(np.random.default_rng(5), 4, 3)
        return tp, solve_transportation(tp).basis

    def test_wrong_cell_count(self, tp_and_basis):
        tp, basis = tp_and_basis
        del basis[min(basis)]
        with pytest.raises(ContractError, match="cells"):
            solve_transportation(tp, basis)

    def test_cell_out_of_range(self, tp_and_basis):
        tp, basis = tp_and_basis
        cell = min(basis)
        basis[(cell[0], 3)] = basis.pop(cell)
        with pytest.raises(ContractError, match="outside"):
            solve_transportation(tp, basis)

    def test_negative_flow(self, tp_and_basis):
        tp, basis = tp_and_basis
        basis[min(basis)] = -1e-3
        with pytest.raises(ContractError, match="negative"):
            solve_transportation(tp, basis)

    def test_basis_from_other_marginals(self, tp_and_basis):
        tp, _ = tp_and_basis
        other = random_balanced(np.random.default_rng(6), 4, 3)
        other.costs = tp.costs
        with pytest.raises(ContractError, match="marginals"):
            solve_transportation(tp, solve_transportation(other).basis)

    def test_disconnected_basis(self):
        # Two 2 x 2 blocks and a cycle inside the first: m + k - 1 cells that
        # meet the marginals but do not span the rows and columns.
        tp = TransportationProblem(
            np.full(4, 0.25), np.full(4, 0.25), np.zeros((4, 4))
        )
        basis = {(0, 0): 0.125, (0, 1): 0.125, (1, 0): 0.125, (1, 1): 0.125,
                 (2, 2): 0.25, (2, 3): 0.0, (3, 3): 0.25}
        with pytest.raises(ContractError, match="disconnected"):
            solve_transportation(tp, basis)
