import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    brute_force_pricing,
    column_support,
    digits_of,
    enumerate_vertices,
    plan_items,
    transport_lp_arrays,
)
from wbary import model, pricing
from wbary.model import (
    ContractError,
    DiscreteMeasure,
    Instance,
    Plan,
    cost_vector,
    make_strides,
)
from wbary.pricing import (
    best_costs,
    choose_partition,
    expand_column,
    init_reduced_costs,
    recompute_reduced_costs,
    solve_pricing,
    tail_start,
    update_reduced_costs,
)
from wbary.transport import TransportPlan, northwest_corner


def uniform_instance(rng, sizes, dim=2):
    ms = tuple(
        DiscreteMeasure(rng.random((s, dim)), np.full(s, 1.0 / s)) for s in sizes
    )
    return Instance(ms, np.full(len(sizes), 1.0 / len(sizes)))


def setup(rng, sizes, variant="any"):
    inst = uniform_instance(rng, sizes)
    part = choose_partition(inst, variant)
    inst_p = inst.permuted(part.perm)
    st = make_strides(inst_p.sizes)
    state = init_reduced_costs(inst_p, part, st)
    return inst_p, part, st, state


class TestChoosePartition:
    def test_variants(self):
        rng = np.random.default_rng(0)
        inst = uniform_instance(rng, [2, 3, 4, 5])
        assert choose_partition(inst, "any").pair == (0, 1)
        assert choose_partition(inst, "large").pair == (2, 3)
        assert choose_partition(inst, "small").pair == (0, 1)

    def test_tie_prefers_input_order(self):
        rng = np.random.default_rng(0)
        inst = uniform_instance(rng, [7, 7, 2])
        assert choose_partition(inst, "large").pair == (0, 1)

    def test_counts(self):
        rng = np.random.default_rng(0)
        inst = uniform_instance(rng, [2, 3, 4, 5])
        part = choose_partition(inst, "large")
        assert part.n_unique == 20
        assert part.n_duplicates == 6
        assert part.perm == (2, 3, 0, 1)


def reduced_cost(state, h):
    """The state's reduced cost of flat combination h = e * n_lo + l."""
    e, l = divmod(h, state.zb.shape[1])
    return state.a[e] + state.pe[e] @ state.zb[:, l]


def set_rows(state, a, rows):
    """Make row e of the state's reduced-cost matrix a[e] + rows[e]: unit P_e
    against -2 Z = rows, with b = 0. Needs dim >= the number of rows."""
    n_e = len(a)
    state.a[:] = a
    state.pe[:] = 0.0
    state.pe[:, :n_e] = np.eye(n_e)
    state.pe[:, -1] = 1.0
    state.zb[:] = 0.0
    state.zb[:n_e] = rows


class TestInit:
    def test_lengths_and_min_preserved(self):
        rng = np.random.default_rng(1)
        inst_p, part, st, state = setup(rng, [2, 3, 2, 3])
        # pair (2, 3) in front, both trailing measures in the tail: n_e = 6, n_lo = 6
        assert state.pe.shape == (6, 3)
        assert state.zb.shape == (3, 6)
        assert state.a.shape == state.a_static.shape == (6,)
        assert state.b_static.shape == (6,)
        assert state.best.shape == (6,)
        assert np.array_equal(state.a, state.a_static)
        assert np.array_equal(state.zb[-1], state.b_static)
        best_costs(state, part)
        costs = cost_vector(inst_p, st, np.arange(st.total))
        assert state.best.min() == pytest.approx(costs.min(), abs=1e-12)

    def test_identical_measures_zero_costs(self):
        pts = np.array([[0.2, 0.4], [0.9, 0.1]])
        m = DiscreteMeasure(pts, np.array([0.5, 0.5]))
        inst = Instance((m, m, m), np.full(3, 1 / 3))
        part = choose_partition(inst, "any")
        st = make_strides(inst.sizes)
        state = init_reduced_costs(inst, part, st)
        diag = [reduced_cost(state, i * 4 + i * 2 + i) for i in range(2)]  # (j,j,j)
        assert np.allclose(diag, 0.0, atol=1e-12)
        best_costs(state, part)
        assert state.best.min() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tail", [2, 3, 4])  # head of 0, 1 or 2 measures
    def test_state_bytes_counts_every_array(self, monkeypatch, tail):
        monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: tail)
        _, _, st, state = setup(np.random.default_rng(1), [2, 3, 2, 3])
        assert state.tail == tail
        arrays = (state.pe, state.zb, state.a, state.a_static, state.b_static,
                  state.best, state.best_index)
        assert sum(x.nbytes for x in arrays) == pricing.state_bytes(st.sizes, 2)

    def test_tail_minimises_the_state_bytes(self):
        def nbytes(sizes, dim, k):
            """[P, 1], a and a_static per head row; [-2 Z; b] and b_static per
            tail column; best and best_index per unique column."""
            n_e, n_lo = math.prod(sizes[:k]), math.prod(sizes[k:])
            return 8 * (n_e * (dim + 1) + 2 * n_e + n_lo * (dim + 1) + n_lo
                        + 2 * sizes[0] * sizes[1])

        rng = np.random.default_rng(17)
        ties = 0
        for _ in range(500):
            sizes = rng.integers(1, 10, int(rng.integers(3, 9))).tolist()
            dim = int(rng.integers(1, 4))
            by_tail = [nbytes(sizes, dim, k) for k in range(2, len(sizes) + 1)]
            least = min(by_tail)
            k = tail_start(sizes, dim)
            assert nbytes(sizes, dim, k) == least == pricing.state_bytes(sizes, dim)
            assert k == 2 + by_tail.index(least)  # ties go to the longer tail
            assert k < len(sizes)  # the tail is never empty
            ties += by_tail.count(least) > 1
        assert ties > 0  # some draw has equal splits, so the tie rule was tested
        assert tail_start([4, 4], 2) == 2  # no trailing measure


class TestUpdates:
    def test_unchanged_duals_leave_costs_alone(self):
        rng = np.random.default_rng(2)
        _, part, st, state = setup(rng, [2, 3, 2])
        a, zb = state.a.copy(), state.zb.copy()
        y = np.zeros(sum(st.sizes[2:]))
        update_reduced_costs(state, y, y, part, st)
        assert np.array_equal(state.a, a)
        assert np.array_equal(state.zb, zb)

    def test_single_row_delta_touches_expected_count(self, monkeypatch):
        rng = np.random.default_rng(3)
        master_rows = 5  # trailing sizes 2 and 3
        y_new = np.zeros(master_rows)
        y_new[0] = 0.25  # first point of the first master measure (size 2)
        # both trailing measures in the tail: the dual moves n_lo / 2 entries of b
        _, part, st, state = setup(rng, [2, 3, 2, 3])
        update_reduced_costs(state, np.zeros(master_rows), y_new, part, st)
        changed = np.flatnonzero(state.b_static - state.zb[-1])
        assert len(changed) == state.zb.shape[1] // st.sizes[2]
        assert np.all(state.b_static[changed] - state.zb[-1, changed] == 0.25)
        assert np.array_equal(state.a, state.a_static)
        # the first one in the head: it moves n_e / 2 entries of a instead
        monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: 3)
        _, part, st, state = setup(rng, [2, 3, 2, 3])
        update_reduced_costs(state, np.zeros(master_rows), y_new, part, st)
        changed = np.flatnonzero(state.a_static - state.a)
        assert len(changed) == state.a.shape[0] // st.sizes[2]
        assert np.all(state.a_static[changed] - state.a[changed] == 0.25)
        assert np.array_equal(state.zb[-1], state.b_static)

    @pytest.mark.parametrize("y", [np.ones(1), np.arange(5.0)], ids=["1-entry", "5-entry"])
    def test_duals_of_another_length_are_refused(self, y):
        # [2, 3, 2] prices the first two measures, so the master has the last
        # measure's 2 rows: a 1-entry y used to move both entries of b by
        # broadcasting, and a 5-entry y to move them by its first two entries
        rng = np.random.default_rng(6)
        _, part, st, state = setup(rng, [2, 3, 2])
        a, zb = state.a.copy(), state.zb.copy()
        with pytest.raises(ContractError, match="one entry per master row"):
            update_reduced_costs(state, np.zeros(2), y, part, st)
        with pytest.raises(ContractError, match="one entry per master row"):
            update_reduced_costs(state, y, np.zeros(2), part, st)
        with pytest.raises(ContractError, match="one entry per master row"):
            recompute_reduced_costs(state, y, part, st)
        assert np.array_equal(state.a, a)
        assert np.array_equal(state.zb, zb)

    def test_incremental_matches_recompute(self, monkeypatch):
        rng = np.random.default_rng(4)
        for tail in (2, 3, 4):  # head of 0, 1 or 2 measures
            monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: tail)
            _, part, st, state = setup(rng, [3, 2, 4, 2])
            master_rows = sum(st.sizes[2:])
            y = np.zeros(master_rows)
            for _ in range(1000):
                y_next = y + rng.normal(0, 0.1, master_rows) * (
                    rng.random(master_rows) < 0.5
                )
                update_reduced_costs(state, y, y_next, part, st)
                y = y_next
            drifted_a, drifted_b = state.a.copy(), state.zb[-1].copy()
            recompute_reduced_costs(state, y, part, st)
            assert np.abs(drifted_a - state.a).max() <= 1e-12
            assert np.abs(drifted_b - state.zb[-1]).max() <= 1e-12

    def test_recompute_against_bruteforce_definition(self):
        rng = np.random.default_rng(5)
        inst_p, part, st, state = setup(rng, [2, 2, 3, 2])
        master_rows = sum(st.sizes[2:])
        y = rng.normal(0, 1, master_rows)
        recompute_reduced_costs(state, y, part, st)
        best_costs(state, part)
        best, index = brute_force_pricing(inst_p, y)
        assert np.allclose(state.best, best, rtol=0.0, atol=1e-12)
        assert np.array_equal(state.best_index, index)


def dyadic_instance(rng, sizes, dim):
    """Weights 1/4 and integer points: every split value is exact."""
    ms = tuple(
        DiscreteMeasure(rng.integers(-3, 4, (s, dim)).astype(float), np.full(s, 1.0 / s))
        for s in sizes
    )
    return Instance(ms, np.full(4, 0.25))


class TestBruteForceDifferential:
    """best and best_index against the minimum of cost(h) - sum of h's trailing
    duals over every combination, computed from the raw points."""

    def test_dyadic_instances_exact_with_ties(self, monkeypatch):
        rng = np.random.default_rng(15)
        for trial in range(30):
            sizes = rng.integers(2, 4, 4).tolist()
            inst = dyadic_instance(rng, sizes, dim=int(rng.integers(1, 4)))
            part = choose_partition(inst, ("any", "large", "small")[trial % 3])
            inst_p = inst.permuted(part.perm)
            st = make_strides(inst_p.sizes)
            y = rng.integers(-8, 9, sum(st.sizes[2:])) / 8.0
            best, index = brute_force_pricing(inst_p, y, exact=True)
            # head group empty, one measure, two measures
            for tail in (2, 3, 4):
                monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: tail)
                state = init_reduced_costs(inst_p, part, st)
                assert state.tail == tail
                recompute_reduced_costs(state, y, part, st)
                n_lo = state.zb.shape[1]
                # tiles hold part of a row, one row, several rows, everything
                for block in (1, n_lo, 3 * n_lo + 1, model.BLOCK):
                    monkeypatch.setattr(model, "BLOCK", block)
                    best_costs(state, part)
                    assert state.best.tolist() == best
                    assert state.best_index.tolist() == index

    def test_random_points_within_1e_12(self, monkeypatch):
        rng = np.random.default_rng(16)
        for trial in range(10):
            sizes = rng.integers(2, 4, 5).tolist()
            inst = uniform_instance(rng, sizes, dim=int(rng.integers(1, 4)))
            part = choose_partition(inst, "large")
            inst_p = inst.permuted(part.perm)
            st = make_strides(inst_p.sizes)
            y = rng.normal(0, 0.5, sum(st.sizes[2:]))
            best, index = brute_force_pricing(inst_p, y)
            for tail in (2, 4, 5):  # head of 0, 2 or 3 measures
                monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: tail)
                state = init_reduced_costs(inst_p, part, st)
                recompute_reduced_costs(state, y, part, st)
                best_costs(state, part)
                assert np.allclose(state.best, best, rtol=0.0, atol=1e-12)
                assert np.array_equal(state.best_index, index)


class TestBestCosts:
    def test_rangewise_minimum(self):
        rng = np.random.default_rng(6)
        _, part, st, state = setup(rng, [2, 1, 3])
        set_rows(state, [0.0, 0.0], [[1.5, 1.0, 2.0], [3.5, 4.0, 6.0]])
        best_costs(state, part)
        assert np.array_equal(state.best, [1.0, 3.5])
        assert np.array_equal(state.best_index, [1, 3])

    def test_no_duplicates_is_identity(self, monkeypatch):
        rng = np.random.default_rng(7)
        inst_p, part, st, state = setup(rng, [2, 3])
        assert part.n_duplicates == 1
        costs = cost_vector(inst_p, st, np.arange(st.total))
        for block in (4, model.BLOCK):  # two row tiles, then one
            monkeypatch.setattr(model, "BLOCK", block)
            best_costs(state, part)
            assert np.allclose(state.best, costs, rtol=0.0, atol=1e-12)
            assert np.array_equal(state.best_index, np.arange(6))

    def test_brute_force_range_scan(self, monkeypatch):
        rng = np.random.default_rng(8)
        inst_p, part, st, state = setup(rng, [3, 2, 2, 2])
        assert (part.n_unique, part.n_duplicates, state.zb.shape[1]) == (6, 4, 4)
        y = rng.normal(0, 1, sum(st.sizes[2:]))
        recompute_reduced_costs(state, y, part, st)
        best, index = brute_force_pricing(inst_p, y)
        # tiles hold part of a row (1, 3), one row (4, 5) or several (9, 12, default)
        for block in (1, 3, 4, 5, 9, 12, model.BLOCK):
            monkeypatch.setattr(model, "BLOCK", block)
            best_costs(state, part)
            assert np.allclose(state.best, best, rtol=0.0, atol=1e-12)
            assert np.array_equal(state.best_index, index)

    def test_argmin_lowest_index_on_ties(self, monkeypatch):
        rng = np.random.default_rng(9)
        _, part, st, state = setup(rng, [2, 1, 2])
        set_rows(state, [0.0, 0.0], [[7.0, 7.0], [1.0, 1.0]])  # ties within rows
        for block in (1, 2, model.BLOCK):  # ties across tiles and within one
            monkeypatch.setattr(model, "BLOCK", block)
            best_costs(state, part)
            assert np.array_equal(state.best, [7.0, 1.0])
            assert np.array_equal(state.best_index, [0, 2])
        # an empty tail: every entry is a row of its own, and ties are over d_hi
        monkeypatch.setattr(pricing, "tail_start", lambda sizes, dim: 3)
        _, part, st, state = setup(rng, [2, 1, 2])
        assert state.zb.shape[1] == 1
        state.a[:] = [7.0, 7.0, 1.0, 1.0]
        state.zb[:] = 0.0
        for block in (1, 2, model.BLOCK):
            monkeypatch.setattr(model, "BLOCK", block)
            best_costs(state, part)
            assert np.array_equal(state.best, [7.0, 1.0])
            assert np.array_equal(state.best_index, [0, 2])

    def test_temporaries_stay_within_one_block(self, monkeypatch):
        rng = np.random.default_rng(14)
        _, part, st, state = setup(rng, [4] * 8)
        assert (st.total, part.n_duplicates) == (65536, 4096)
        monkeypatch.setattr(model, "BLOCK", 1024)
        tracemalloc.start()
        try:
            best_costs(state, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a tile is 8 KB (numpy may add a buffer of the same size); a
        # full-length temporary would be 512 KB
        assert peak < 8 * st.total // 8

    @pytest.mark.parametrize("sizes", [[4] * 10, [2, 2, 3, 140_000]], ids=["rows", "columns"])
    def test_peak_is_one_tile_at_the_default_block(self, sizes):
        # 1024 x 1024 entries in tiles of whole rows; 12 rows of 140,000
        # entries, each split into two tiles
        rng = np.random.default_rng(17)
        _, part, st, state = setup(rng, sizes)
        n_e, n_lo = state.a.shape[0], state.zb.shape[1]
        assert n_e * n_lo >= 8 * model.BLOCK
        tracemalloc.start()
        try:
            best_costs(state, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one tile of float64 plus per-row and per-column arrays
        assert peak < 8 * model.BLOCK + 64 * (n_e + n_lo)


class TestSolvePricing:
    def test_state_holds_the_pairs_basis(self):
        # init_reduced_costs builds the northwest corner of the pair's masses,
        # and each pricing pivots that basis on in place.
        rng = np.random.default_rng(15)
        inst_p, part, st, state = setup(rng, [3, 4, 2], "large")
        basis = state.basis
        corner = northwest_corner(*(m.masses for m in inst_p.measures[:2]))
        assert (basis.cells, basis.flows) == (corner.cells, corner.flows)
        assert np.array_equal(basis.supplies, inst_p.measures[0].masses)
        assert np.array_equal(basis.demands, inst_p.measures[1].masses)
        for _ in range(3):
            recompute_reduced_costs(state, rng.normal(0, 0.5, sum(st.sizes[2:])), part, st)
            best_costs(state, part)
            first = solve_pricing(state)
            again = solve_pricing(state)  # from the optimum the first left
            assert state.basis is basis and again.pivots == 0
            assert plan_items(again.flows) == plan_items(first.flows)

    def test_zero_costs_zero_objective(self):
        rng = np.random.default_rng(10)
        inst_p, part, st, state = setup(rng, [2, 2, 2])
        state.a[:] = 0.0
        state.zb[:] = 0.0
        best_costs(state, part)
        plan = solve_pricing(state)
        assert plan.objective == pytest.approx(0.0, abs=1e-12)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sizes = [int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2, 2]
            inst_p, part, st, state = setup(rng, sizes)
            master_rows = sum(st.sizes[2:])
            y = rng.normal(0, 0.5, master_rows)
            recompute_reduced_costs(state, y, part, st)
            best_costs(state, part)
            sup = inst_p.measures[0].masses
            dem = inst_p.measures[1].masses
            plan = solve_pricing(state)
            c, A, b = transport_lp_arrays(
                sup, dem, state.best.reshape(len(sup), len(dem))
            )
            verts = enumerate_vertices(A, b)
            expect = min(float(c @ v) for v in verts)
            assert plan.objective == pytest.approx(expect, abs=1e-9)

    def test_expand_column_places_mass_at_argmin_indices(self):
        rng = np.random.default_rng(12)
        inst_p, part, st, state = setup(rng, [3, 2, 2])
        best_costs(state, part)
        plan = solve_pricing(state)
        p = expand_column(plan, state)
        assert p.mass.sum() == pytest.approx(1.0)
        assert len(p.index) <= 3 + 2 - 1
        for h in p.index.tolist():
            assert h in set(state.best_index.tolist())
        # pair-row feasibility: aggregated digit masses match both pair measures
        sums = [np.zeros(3), np.zeros(2)]
        for h, q in plan_items(p):
            d = digits_of(h, st.sizes)
            sums[0][d[0]] += q
            sums[1][d[1]] += q
        assert np.allclose(sums[0], inst_p.measures[0].masses, atol=1e-9)
        assert np.allclose(sums[1], inst_p.measures[1].masses, atol=1e-9)

    def test_expand_column_drops_flows_at_most_mass_tol(self):
        rng = np.random.default_rng(14)
        inst_p, part, st, state = setup(rng, [3, 2, 2])
        # cells (0, 0), (1, 1) and (2, 0) of the 3 x 2 pair
        flows = Plan(np.array([0, 3, 4]), np.array([1e-13, 1e-11, 0.5]))
        plan = TransportPlan(flows, objective=0.0, pivots=0)
        p = expand_column(plan, state)
        assert p.index.tolist() == [state.best_index[3], state.best_index[4]]
        assert p.mass.tolist() == [1e-11, 0.5]

    def test_reduced_cost_consistency_of_expansion(self):
        # cost(p) minus dual credit equals the transport part of the objective
        rng = np.random.default_rng(13)
        inst_p, part, st, state = setup(rng, [2, 3, 2, 2])
        master_rows = sum(st.sizes[2:])
        y = rng.normal(0, 0.3, master_rows)
        recompute_reduced_costs(state, y, part, st)
        best_costs(state, part)
        plan = solve_pricing(state)
        p = expand_column(plan, state)
        offset = st.row_offsets[2]
        cost_p = float(np.dot(p.mass, cost_vector(inst_p, st, p.index)))
        dual_credit = 0.0
        for h, q in plan_items(p):
            for r in column_support(h, st)[2:]:
                dual_credit += q * y[r - offset]
        assert cost_p - dual_credit == pytest.approx(plan.objective, abs=1e-9)
