import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import DenseLP, solve, transport_lp_arrays
from wbary import driver, pricing, transport
from wbary.driver import SolveConfig, solve as solve_cg
from wbary.model import ContractError, DiscreteMeasure, Instance
from wbary.transport import Basis, northwest_corner, solve_transportation

SRC = Path(__file__).resolve().parent.parent / "src"


def solve_cold(supplies, demands, costs):
    """Solve from the northwest corner of the marginals."""
    return solve_transportation(costs, northwest_corner(supplies, demands))


def copy_of(basis):
    """A basis with its own cell and flow lists."""
    return replace(basis, cells=list(basis.cells), flows=list(basis.flows))


def basic_items(basis):
    """A basis's (flat cell, flow) pairs in ascending cell order."""
    return sorted(zip(basis.cells, basis.flows))


def deep_instance():
    """The instance `wbary gen --n 5 --size 8 --seed 0` writes."""
    rng = np.random.default_rng(0)
    measures = tuple(DiscreteMeasure(rng.random((8, 2)), np.full(8, 1 / 8)) for _ in range(5))
    return Instance(measures, np.full(5, 1 / 5))


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
        plan = solve_cold(np.array([1.0]), np.array([1.0]), np.array([[5.0]]))
        assert flows_of(plan) == [(0, 1.0)]
        assert plan.objective == pytest.approx(5.0)

    def test_identity_matching(self):
        plan = solve_cold(
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        assert plan.objective == pytest.approx(0.0)
        assert plan.flows.index.tolist() == [0, 3]  # cells (0, 0) and (1, 1)

    def test_two_by_two_hand_solved(self):
        plan = solve_cold(
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
        with pytest.raises(ContractError, match="unbalanced"):
            northwest_corner(np.array([1.0]), np.array([0.9]))

    def test_nonpositive_marginals_rejected(self):
        for supplies in ([1.0, 0.0], [1.5, -0.5]):
            with pytest.raises(ContractError, match="strictly positive"):
                northwest_corner(np.array(supplies), np.array([1.0]))

    @pytest.mark.parametrize("supplies, demands", [
        ([], []), ([[0.5, 0.5]], [1.0]), (0.5, [0.5]), ([1.0], np.ones((1, 1))),
    ])
    def test_marginals_are_nonempty_vectors(self, supplies, demands):
        with pytest.raises(ContractError, match="nonempty vectors"):
            northwest_corner(np.array(supplies), np.array(demands))

    def test_costs_must_fit_the_marginals(self):
        basis = northwest_corner(np.full(2, 0.5), np.full(3, 1 / 3))
        for shape in ((3, 2), (6,), (2, 3, 1)):
            with pytest.raises(ContractError, match="2 x 3 marginals"):
                solve_transportation(np.zeros(shape), basis)

    def test_non_finite_costs_rejected(self):
        # A NaN cost makes the reduced costs it touches NaN, which argmin
        # picks and no test prices out, and inf costs make inf - inf: either
        # way the pivot loop would never end, so the check runs in a process
        # of its own with a time limit.
        code = (
            "import numpy as np\n"
            "from wbary.model import ContractError\n"
            "from wbary.transport import northwest_corner, solve_transportation\n"
            "s, one_nan = np.full(3, 1 / 3), np.ones((3, 3))\n"
            "one_nan[1, 1] = np.nan\n"
            "for costs in (one_nan, np.full((3, 3), np.inf)):\n"
            "    try:\n"
            "        solve_transportation(costs, northwest_corner(s, s))\n"
            "    except ContractError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, env=env, check=True).stdout
        assert out.splitlines() == ["costs must be finite"] * 2

    def test_overflowing_costs_rejected(self):
        # Finite costs near the largest float overflow the potentials, and the
        # NaN of inf - inf used to keep the pivot loop going forever; so this
        # too runs in a process of its own with a time limit, with warnings
        # as errors. The basis the raise leaves must still solve ordinary
        # costs to a cold solve's objective.
        code = (
            "import numpy as np\n"
            "from wbary.model import ContractError\n"
            "from wbary.transport import northwest_corner, solve_transportation\n"
            "rng = np.random.default_rng(0)\n"
            "m, k = (int(v) for v in rng.integers(2, 6, 2))\n"
            "s, d = np.full(m, 1 / m), np.full(k, 1 / k)\n"
            "basis = northwest_corner(s, d)\n"
            "try:\n"
            "    solve_transportation(rng.uniform(-1, 1, (m, k)) * 1.7e308, basis)\n"
            "except ContractError as exc:\n"
            "    print(exc)\n"
            "# u_1 = c_10 - c_00 overflows and no cell enters: caught at exit\n"
            "two = northwest_corner([0.5, 0.5], [0.5, 0.5])\n"
            "try:\n"
            "    solve_transportation([[-1.7e308, 0.0], [1.7e308, 0.0]], two)\n"
            "except ContractError as exc:\n"
            "    print(exc)\n"
            "costs = rng.uniform(-1, 1, (m, k))\n"
            "warm = solve_transportation(costs, basis).objective\n"
            "cold = solve_transportation(costs, northwest_corner(s, d)).objective\n"
            "print(m, k, abs(warm - cold) <= 1e-12)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-W", "error", "-c", code],
                             capture_output=True, text=True, timeout=60, env=env,
                             check=True).stdout
        assert out.splitlines() == ["costs overflow the transport potentials"] * 2 + ["5 4 True"]


class TestAgainstSimplex:
    def test_500_random_instances(self):
        for make, top in ((random_balanced, 12), (uniform_integer, 20)):
            rng = np.random.default_rng(42)
            for trial in range(500):
                m = int(rng.integers(1, top + 1))
                k = int(rng.integers(1, top + 1))
                tp = make(rng, m, k)
                plan = solve_cold(*tp)
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
        plan = solve_cold(
            np.array([0.6, 0.4]),
            np.array([0.5, 0.5]),
            np.array([[-5.0, -1.0], [-1.0, -10.0]]),
        )
        # mass 0.5 on (0,0), 0.1 on (0,1), 0.4 on (1,1) is optimal: -6.6
        assert plan.objective == pytest.approx(-6.6, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        tp = random_balanced(rng, 6, 7)
        p1 = solve_cold(*tp)
        p2 = solve_cold(*tp)
        assert flows_of(p1) == flows_of(p2)
        assert p1.objective == p2.objective

    def test_flows_and_basis_are_ascending_cells(self):
        supplies, demands, costs = uniform_integer(np.random.default_rng(2), 5, 5)
        basis = northwest_corner(supplies, demands)
        plan = solve_transportation(costs, basis)  # degenerate
        assert plan.flows.index.dtype == np.int64
        assert len(basis.cells) == len(basis.flows) == 5 + 5 - 1
        # the flows are the basic cells with flow above FLOW_TOL, ascending,
        # zero flows out
        assert flows_of(plan) == [(h, q) for h, q in basic_items(basis) if q > 1e-15]
        assert len(plan.flows.index) < len(basis.cells)

    def test_degenerate_equal_marginals(self):
        # Many ties: all supplies and demands equal.
        n = 5
        tp = (
            np.full(n, 1.0 / n),
            np.full(n, 1.0 / n),
            np.arange(n * n, dtype=float).reshape(n, n) % 7,
        )
        plan = solve_cold(*tp)
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
        plan = solve_cold(np.full(m, 1.0 / m), np.full(k, 1.0 / k),
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
            plan = solve_cold(*tp)
            lp_sol = solve(DenseLP(*transport_lp_arrays(*tp)))
            assert abs(plan.objective - lp_sol.objective) <= 1e-9, f"trial {trial}"
            assert plan_residual(tp, plan) <= 1e-12, f"trial {trial}"

    def test_one_reduced_cost_buffer(self, monkeypatch):
        # Beside the costs, allocated before tracing, a solve holds one m x k
        # buffer of reduced costs and, under the lowest-cell rule, its
        # one-byte mask: its peak stays under twice the costs' bytes. From
        # the northwest corner the lowest-cell rule takes tens of thousands
        # of pivots here, so both traced solves start from a copy of the
        # optimal basis of nearby costs, as pricing does.
        rng = np.random.default_rng(3)
        supplies, demands, costs = random_balanced(rng, 200, 200)
        basis = northwest_corner(supplies, demands)
        solve_transportation(costs, basis)
        costs += rng.uniform(0.0, 0.02, costs.shape)
        for bland_after in (transport.BLAND_AFTER, -1):
            monkeypatch.setattr(transport, "BLAND_AFTER", bland_after)
            start = copy_of(basis)
            tracemalloc.start()
            try:
                plan = solve_transportation(costs, start)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert plan.pivots > 0
            assert peak < 2 * costs.nbytes, f"BLAND_AFTER = {bland_after}"


class TestWarmStart:
    def test_chains_of_costs_match_cold_and_oracle(self):
        # One basis is pivoted on through a chain of solves, as pricing does:
        # same marginals, new costs.
        rng = np.random.default_rng(7)
        for trial in range(200):
            make = (random_balanced, uniform_integer)[trial % 2]
            m, k = (int(x) for x in rng.integers(1, 11, size=2))
            supplies, demands, _ = make(rng, m, k)
            basis = northwest_corner(supplies, demands)
            for link in range(int(rng.integers(5, 11))):
                where = f"{make.__name__} trial {trial} link {link}"
                tp = (supplies, demands, make(rng, m, k)[2])
                plan = solve_transportation(tp[2], basis)
                cold = solve_cold(*tp)
                assert abs(plan.objective - cold.objective) <= 1e-12 * (
                    1 + abs(cold.objective)
                ), where
                c, A, b = transport_lp_arrays(*tp)
                lp_sol = solve(DenseLP(c, A, b))
                assert abs(plan.objective - lp_sol.objective) <= 1e-9 * (
                    1 + abs(lp_sol.objective)
                ), where
                assert plan_residual(tp, plan) <= 1e-9, where
                # the basis left behind is a feasible basis of the same problem
                assert len(basis.cells) == len(set(basis.cells)) == m + k - 1, where
                cells, flows = np.array(basis.cells), np.array(basis.flows)
                assert flows.min() >= 0.0, where
                assert np.abs(np.bincount(cells // k, flows, m) - supplies).max() <= 1e-9
                assert np.abs(np.bincount(cells % k, flows, k) - demands).max() <= 1e-9

    def test_optimal_basis_takes_no_pivot(self):
        supplies, demands, costs = random_balanced(np.random.default_rng(3), 7, 5)
        basis = northwest_corner(supplies, demands)
        cold = solve_transportation(costs, basis)
        assert cold.pivots > 0
        optimal = basic_items(basis)
        again = solve_transportation(costs, basis)
        assert again.pivots == 0
        assert flows_of(again) == flows_of(cold)
        assert basic_items(basis) == optimal

    def test_basis_order_does_not_matter(self):
        # The pivot rules read no cell order: the same basis with its cells
        # permuted gives the same plan, bit for bit, on every link of a chain.
        rng = np.random.default_rng(8)
        for trial in range(100):
            make = (random_balanced, uniform_integer)[trial % 2]
            m, k = (int(x) for x in rng.integers(2, 9, size=2))
            supplies, demands, costs = make(rng, m, k)
            basis = northwest_corner(supplies, demands)
            solve_transportation(costs, basis)
            for link in range(5):
                where = f"{make.__name__} trial {trial} link {link}"
                costs = make(rng, m, k)[2]
                order = rng.permutation(m + k - 1).tolist()
                shuffled = Basis(supplies, demands, [basis.cells[p] for p in order],
                                 [basis.flows[p] for p in order])
                plan = solve_transportation(costs, basis)
                other = solve_transportation(costs, shuffled)
                assert flows_of(other) == flows_of(plan), where
                assert basic_items(shuffled) == basic_items(basis), where
                assert other.objective == plan.objective, where
                assert other.pivots == plan.pivots, where

    def test_pricing_of_a_deep_instance_pivots_less(self, monkeypatch):
        # The pricings of one solve with the large pair against the same cost
        # matrices solved cold.
        original = pricing.solve_pricing
        priced = []

        def recording(state):
            plan = original(state)
            basis = state.basis
            costs = state.best.reshape(len(basis.supplies), len(basis.demands)).copy()
            priced.append(((basis.supplies, basis.demands, costs), plan.pivots))
            return plan

        monkeypatch.setattr(pricing, "solve_pricing", recording)
        res = solve_cg(deep_instance(), SolveConfig(pair_variant="large"))
        assert res.converged and len(priced) == res.pricing_calls > 50
        warm = sum(pivots for _, pivots in priced)
        cold = sum(solve_cold(*tp).pivots for tp, _ in priced)
        assert warm <= 0.3 * cold
        print(f"\ntransport pivots per pricing: warm {warm / len(priced):.2f}, "
              f"cold {cold / len(priced):.2f}")

    def test_one_solve_keeps_one_basis(self, monkeypatch):
        # The solve builds one northwest corner, and each pricing pivots that
        # same basis on from where the pricing before it left it.
        corners, calls = [], []

        def counting(supplies, demands):
            basis = northwest_corner(supplies, demands)
            corners.append((basis, basic_items(basis)))
            return basis

        def recording(costs, basis):
            before = basic_items(basis)
            plan = solve_transportation(costs, basis)
            calls.append((basis, before, basic_items(basis)))
            return plan

        for module in (driver, pricing):
            monkeypatch.setattr(module, "northwest_corner", counting)
        monkeypatch.setattr(pricing, "solve_transportation", recording)
        res = solve_cg(deep_instance(), SolveConfig(pair_variant="large"))
        assert res.converged and len(corners) == 1
        assert len(calls) == res.pricing_calls > 50
        corner, left = corners[0]
        for n, (basis, before, after) in enumerate(calls):
            assert basis is corner and before == left, f"pricing {n}"
            left = after
        assert sum(before != after for _, before, after in calls) > 10


class TestBadWarmBasis:
    # northwest_corner builds every basis, so a negative or NaN flow can only
    # come from a marginal, which it refuses. A Basis built directly must
    # hold m + k - 1 integer cells of the cost matrix, one flow each, that
    # span its rows and columns.
    def test_negative_flow(self):
        with pytest.raises(ContractError, match="strictly positive"):
            northwest_corner(np.array([0.5, 0.501, -1e-3]), np.array([0.5, 0.5]))

    def test_nan_flow(self):
        with pytest.raises(ContractError, match="strictly positive"):
            northwest_corner(np.array([0.5, 0.5, np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(ContractError, match="finite"):
            northwest_corner(np.array([0.5, np.inf]), np.array([0.5, np.inf]))

    def test_basis_from_other_marginals(self):
        # a 3 x 4 problem's basis for 4 x 3 costs
        supplies, demands, costs = random_balanced(np.random.default_rng(5), 4, 3)
        with pytest.raises(ContractError, match="3 x 4 marginals"):
            solve_transportation(costs, northwest_corner(demands, supplies))

    def test_wrong_cell_count(self):
        for cells in ([0, 3], [0, 1, 2, 3]):
            with pytest.raises(ContractError, match="needs 3 cells"):
                Basis(np.full(2, 0.5), np.full(2, 0.5), cells, [0.5] * len(cells))

    def test_index_and_mass_lengths_differ(self):
        with pytest.raises(ContractError, match="as many flows"):
            Basis(np.full(2, 0.5), np.full(2, 0.5), [0, 1, 3], [0.5, 0.5])

    def test_cell_out_of_range(self):
        # -1 would wrap to the last column and 4 to column node 0
        for cells in ([0, 1, 4], [-1, 1, 3]):
            with pytest.raises(ContractError, match="cells of the cost matrix"):
                Basis(np.full(2, 0.5), np.full(2, 0.5), cells, [0.5, 0.0, 0.5])

    def test_non_integer_cells(self):
        with pytest.raises(ContractError, match="integer cells"):
            Basis(np.full(2, 0.5), np.full(2, 0.5), [0.0, 1.0, 3.0], [0.5, 0.0, 0.5])

    def test_duplicated_cell(self):
        # Cell (0, 0) twice, its flow split between the copies: three cells
        # that meet the marginals but span only two of the four nodes' edges.
        with pytest.raises(ContractError, match="spanning tree"):
            Basis(np.full(2, 0.5), np.full(2, 0.5), [0, 0, 3], [0.25, 0.25, 0.5])

    def test_disconnected_basis(self):
        # Two 2 x 2 blocks and a cycle inside the first: m + k - 1 cells that
        # meet the marginals but do not span the rows and columns. The walk
        # from row 0 meets the cycle and must still end.
        # cells (0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3) and (3, 3)
        with pytest.raises(ContractError, match="spanning tree"):
            Basis(np.full(4, 0.25), np.full(4, 0.25), [0, 1, 4, 5, 10, 11, 15],
                  [0.125, 0.125, 0.125, 0.125, 0.25, 0.0, 0.25])
        # a cycle away from row 0: its component is a path, the rest unreached
        # cells (0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3) and (0, 3)
        with pytest.raises(ContractError, match="spanning tree"):
            Basis(np.full(4, 0.25), np.full(4, 0.25), [0, 5, 6, 9, 10, 15, 3],
                  [0.125, 0.125, 0.125, 0.125, 0.125, 0.25, 0.125])


def oracle_tree(cells, cell_costs, m, k):
    """Potentials (u then v, u[0] = 0) and the tree rooted at row 0, from one
    depth-first walk over a fresh adjacency: each node's parent, depth and the
    position of the cell joining it to its parent."""
    adj = [[] for _ in range(m + k)]
    for pos, c in enumerate(cells):
        i, j = divmod(c, k)
        adj[i].append((m + j, pos))
        adj[m + j].append((i, pos))
    pot = [0.0] * (m + k)
    parent, link, depth = [-1] * (m + k), [-1] * (m + k), [-1] * (m + k)
    depth[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt, pos in adj[node]:
            if depth[nxt] >= 0:
                continue
            parent[nxt], link[nxt], depth[nxt] = node, pos, depth[node] + 1
            pot[nxt] = cell_costs[pos] - pot[node]
            stack.append(nxt)
    assert min(depth) >= 0
    return pot, parent, link, depth


def oracle_solve(costs, cells, flows):
    """The transport simplex that rebuilds its whole tree at every pivot,
    pivoting the lists cells and flows in place. Returns the flows as
    (cell, flow) pairs ascending, the objective, the pivots and how many of
    them the lowest-cell rule chose."""
    m, k = costs.shape
    flat_costs = costs.ravel()
    cell_costs = flat_costs[cells].tolist()
    red = np.empty((m, k))
    flat_red = red.ravel()
    pivots = streak = lowest = 0
    while True:
        pot, parent, link, depth = oracle_tree(cells, cell_costs, m, k)
        pot = np.array(pot)
        np.subtract(costs, pot[:m, None], out=red)
        red -= pot[None, m:]
        flat_red[cells] = np.inf
        if streak > transport.BLAND_AFTER:
            enter = int((flat_red < -transport.REDUCED_TOL).argmax())
        else:
            enter = int(flat_red.argmin())
        if flat_red[enter] >= -transport.REDUCED_TOL:
            break
        lowest += streak > transport.BLAND_AFTER
        a, b = divmod(enter, k)
        b += m
        up, down = [], []
        while a != b:
            if depth[a] >= depth[b]:
                up.append(link[a])
                a = parent[a]
            else:
                down.append(link[b])
                b = parent[b]
        path = up + down[::-1]
        minus = path[0::2]
        theta = max(min(flows[p] for p in minus), 0.0)
        leave = min((cells[p], p) for p in minus if flows[p] <= theta + transport.FLOW_TOL)[1]
        for p in minus:
            flows[p] = max(flows[p] - theta, 0.0)
        for p in path[1::2]:
            flows[p] += theta
        cells[leave] = enter
        cell_costs[leave] = float(flat_costs[enter])
        flows[leave] = theta
        pivots += 1
        streak = streak + 1 if theta <= transport.FLOW_TOL else 0
    kept = sorted((h, q) for h, q in zip(cells, flows) if q > transport.FLOW_TOL)
    objective = float(sum(np.array([q for _, q in kept]) * flat_costs[[h for h, _ in kept]]))
    return kept, objective, pivots, lowest


class TestKeptTree:
    """The solver keeps its basis tree across pivots and solves, and relinks
    only the subtree a pivot moves. It must pivot exactly as a solver that
    rebuilds the whole tree at every pivot, bit for bit."""

    @staticmethod
    def assert_tree_is_fresh(basis, costs, where):
        m, k = costs.shape
        fresh = oracle_tree(basis.cells, costs.ravel()[basis.cells].tolist(), m, k)
        kept = (basis.pot, basis.parent, basis.link, basis.depth)
        for name, want, got in zip(("pot", "parent", "link", "depth"), fresh, kept):
            assert got == want, f"{where}: {name}"
        # order is a preorder: each node's descendants are the run of deeper
        # nodes right after it
        parent, depth = fresh[1], fresh[3]
        assert sorted(basis.order) == list(range(m + k)) and basis.order[0] == 0, where
        below = [set() for _ in range(m + k)]
        for b in range(1, m + k):
            a = parent[b]
            while a >= 0:
                below[a].add(b)
                a = parent[a]
        for at, a in enumerate(basis.order):
            run = at + 1
            while run < m + k and depth[basis.order[run]] > depth[a]:
                run += 1
            assert set(basis.order[at + 1 : run]) == below[a], where

    def run_chain(self, supplies, demands, cost_chain, where):
        """Solve each costs of the chain on one basis and on the oracle's
        lists; returns how many pivots the lowest-cell rule chose."""
        basis = northwest_corner(supplies, demands)
        cells, flows = list(basis.cells), list(basis.flows)
        lowest = 0
        for n, costs in enumerate(cost_chain):
            plan = solve_transportation(costs, basis)
            want, objective, pivots, by_lowest = oracle_solve(costs, cells, flows)
            at = f"{where} link {n}"
            assert flows_of(plan) == want, at
            assert plan.objective == objective, at
            assert plan.pivots == pivots, at
            assert (basis.cells, basis.flows) == (cells, flows), at
            self.assert_tree_is_fresh(basis, costs, at)
            lowest += by_lowest
        return lowest

    def test_chains_match_the_rebuilding_oracle(self):
        rng = np.random.default_rng(30)
        sizes = [(1, 1), (1, 7), (7, 1), (2, 2), (40, 40), (40, 3), (3, 40)]
        sizes += [tuple(int(x) for x in rng.integers(1, 41, size=2)) for _ in range(25)]
        for trial, (m, k) in enumerate(sizes):
            make = (random_balanced, uniform_integer)[trial % 2]
            supplies, demands, _ = make(rng, m, k)
            chain = [make(rng, m, k)[2] for _ in range(4)]
            # then small steps, as pricing's costs take
            chain += [chain[-1] + rng.uniform(0.0, 0.05, (m, k)) for _ in range(4)]
            self.run_chain(supplies, demands, chain, f"{make.__name__} {m} x {k}")

    def test_degenerate_chain_reaches_the_lowest_cell_rule(self):
        # Uniform masses and costs -((i + j) mod n): from the northwest corner
        # the 60 x 60 solve runs 59 degenerate pivots in a row, more than
        # BLAND_AFTER, so the lowest-cell rule enters cells too. Costs with
        # many ties follow.
        rng = np.random.default_rng(31)
        n = 60
        i, j = np.indices((n, n))
        chain = [-((i + j) % n).astype(float)]
        chain += [rng.integers(0, 3, size=(n, n)).astype(float) for _ in range(3)]
        lowest = self.run_chain(np.full(n, 1 / n), np.full(n, 1 / n), chain, "uniform")
        assert lowest > 0

    def test_pinned_300_by_300_pair(self):
        # Two 300-point measures in 2-D with random masses and costs
        # |x - y|^2 / 4, solved from the northwest corner. The pivot count
        # and objective were recorded with the solver that rebuilt its tree
        # at every pivot.
        rng = np.random.default_rng(1)
        x, y = rng.random((300, 2)), rng.random((300, 2))
        a, b = rng.uniform(0.2, 1.0, 300), rng.uniform(0.2, 1.0, 300)
        costs = 0.25 * ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)
        plan = solve_cold(a / a.sum(), b / b.sum(), costs)
        assert plan.pivots == 3350
        assert plan.objective.hex() == "0x1.2473268aa66e3p-10"
