import tracemalloc

import numpy as np
import pytest

from oracles import enumerate_vertices, transport_lp_arrays
from wbary import model
from wbary.model import (
    DiscreteMeasure,
    Instance,
    column_support,
    make_strides,
    tuple_of,
)
from wbary.pricing import (
    best_costs,
    choose_partition,
    expand_column,
    init_reduced_costs,
    recompute_reduced_costs,
    solve_pricing,
    update_reduced_costs,
)


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


class TestInit:
    def test_lengths_and_min_preserved(self):
        rng = np.random.default_rng(1)
        _, part, st, state = setup(rng, [2, 3, 2, 3])
        assert state.costs.shape == (36,)
        assert np.array_equal(state.dual_sum, np.zeros(part.n_duplicates))
        assert state.best.shape == (6,)
        assert state.costs.min() == state.best.min()

    def test_identical_measures_zero_costs(self):
        pts = np.array([[0.2, 0.4], [0.9, 0.1]])
        m = DiscreteMeasure(pts, np.array([0.5, 0.5]))
        inst = Instance((m, m, m), np.full(3, 1 / 3))
        part = choose_partition(inst, "any")
        st = make_strides(inst.sizes)
        state = init_reduced_costs(inst, part, st)
        diag = [state.costs[i * 4 + i * 2 + i] for i in range(2)]  # (j,j,j)
        assert np.allclose(diag, 0.0, atol=1e-12)
        assert state.best.min() == pytest.approx(0.0, abs=1e-12)


def brute_force_best(state, part, st, y):
    """Per unique column u: min over d of costs[u*n_d + d] - sum of the duals
    of d's trailing digits, with the lowest flat index among ties."""
    offset = st.row_offsets[2]
    n_d = part.n_duplicates
    best = np.empty(part.n_unique)
    index = np.empty(part.n_unique, dtype=np.int64)
    for u in range(part.n_unique):
        values = [
            state.costs[u * n_d + d]
            - sum(y[r - offset] for r in column_support(u * n_d + d, st)[2:])
            for d in range(n_d)
        ]
        best[u] = min(values)
        index[u] = u * n_d + values.index(best[u])
    return best, index


class TestUpdates:
    def test_unchanged_duals_leave_costs_alone(self):
        rng = np.random.default_rng(2)
        _, part, st, state = setup(rng, [2, 3, 2])
        costs = state.costs.copy()
        y = np.zeros(5)
        update_reduced_costs(state, y, y, part, st)
        assert np.array_equal(state.dual_sum, np.zeros(part.n_duplicates))
        assert np.array_equal(state.costs, costs)

    def test_single_row_delta_touches_expected_count(self):
        rng = np.random.default_rng(3)
        _, part, st, state = setup(rng, [2, 3, 2, 3])
        master_rows = sum(st.sizes[2:])
        y_new = np.zeros(master_rows)
        y_new[0] = 0.25  # first point of the first master measure (size 2)
        update_reduced_costs(state, np.zeros(master_rows), y_new, part, st)
        changed = np.flatnonzero(state.dual_sum)
        assert len(changed) == part.n_duplicates // st.sizes[2]
        assert np.all(state.dual_sum[changed] == 0.25)

    def test_incremental_matches_recompute(self):
        rng = np.random.default_rng(4)
        _, part, st, state = setup(rng, [3, 2, 4, 2])
        master_rows = sum(st.sizes[2:])
        y = np.zeros(master_rows)
        for _ in range(1000):
            y_next = y + rng.normal(0, 0.1, master_rows) * (
                rng.random(master_rows) < 0.5
            )
            update_reduced_costs(state, y, y_next, part, st)
            y = y_next
        drifted = state.dual_sum.copy()
        recompute_reduced_costs(state, y, part, st)
        assert np.abs(drifted - state.dual_sum).max() <= 1e-12

    def test_recompute_against_bruteforce_definition(self):
        rng = np.random.default_rng(5)
        inst_p, part, st, state = setup(rng, [2, 2, 3, 2])
        master_rows = sum(st.sizes[2:])
        y = rng.normal(0, 1, master_rows)
        recompute_reduced_costs(state, y, part, st)
        offset = st.row_offsets[2]
        for d in range(part.n_duplicates):  # unique column 0: h == d
            expect = sum(y[r - offset] for r in column_support(d, st)[2:])
            assert state.dual_sum[d] == pytest.approx(expect, abs=1e-12)
        best_costs(state, part)
        best, index = brute_force_best(state, part, st, y)
        assert np.allclose(state.best, best, rtol=0.0, atol=1e-12)
        assert np.array_equal(state.best_index, index)


class TestBestCosts:
    def test_rangewise_minimum(self):
        rng = np.random.default_rng(6)
        _, part, st, state = setup(rng, [2, 1, 3])
        state.costs[:] = [3.0, 1.0, 2.0, 5.0, 4.0, 6.0]
        state.dual_sum[:] = [1.5, 0.0, 0.0]
        best_costs(state, part)
        assert np.array_equal(state.best, [1.0, 3.5])
        assert np.array_equal(state.best_index, [1, 3])

    def test_no_duplicates_is_identity(self, monkeypatch):
        rng = np.random.default_rng(7)
        _, part, st, state = setup(rng, [2, 3])
        assert part.n_duplicates == 1
        for block in (4, model.BLOCK):  # two row tiles, then one
            monkeypatch.setattr(model, "BLOCK", block)
            best_costs(state, part)
            assert np.array_equal(state.best, state.costs)
            assert np.array_equal(state.best_index, np.arange(6))

    def test_brute_force_range_scan(self, monkeypatch):
        rng = np.random.default_rng(8)
        _, part, st, state = setup(rng, [3, 2, 2, 2])
        assert (part.n_unique, part.n_duplicates) == (6, 4)
        state.costs[:] = rng.normal(0, 1, st.total)
        y = rng.normal(0, 1, sum(st.sizes[2:]))
        recompute_reduced_costs(state, y, part, st)
        best, index = brute_force_best(state, part, st, y)
        # tiles hold part of a row (1, 3), one row (5) or several (9, 12, default)
        for block in (1, 3, 5, 9, 12, model.BLOCK):
            monkeypatch.setattr(model, "BLOCK", block)
            best_costs(state, part)
            assert np.array_equal(state.best, best)
            assert np.array_equal(state.best_index, index)

    def test_argmin_lowest_index_on_ties(self, monkeypatch):
        rng = np.random.default_rng(9)
        _, part, st, state = setup(rng, [2, 1, 2])
        state.costs[:] = [7.0, 8.0, 1.0, 2.0]
        state.dual_sum[:] = [0.0, 1.0]  # every row ties after the dual sum
        for block in (1, 2, model.BLOCK):  # ties across tiles and within one
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


class TestSolvePricing:
    def test_zero_costs_zero_objective(self):
        rng = np.random.default_rng(10)
        inst_p, part, st, state = setup(rng, [2, 2, 2])
        state.costs[:] = 0.0
        best_costs(state, part)
        obj, plan = solve_pricing(
            state, part, inst_p.measures[0].masses, inst_p.measures[1].masses
        )
        assert obj == pytest.approx(0.0, abs=1e-12)

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
            obj, plan = solve_pricing(state, part, sup, dem)
            c, A, b = transport_lp_arrays(
                sup, dem, state.best.reshape(len(sup), len(dem))
            )
            verts = enumerate_vertices(A, b)
            expect = min(float(c @ v) for v in verts)
            assert obj == pytest.approx(expect, abs=1e-9)

    def test_expand_column_places_mass_at_argmin_indices(self):
        rng = np.random.default_rng(12)
        inst_p, part, st, state = setup(rng, [3, 2, 2])
        best_costs(state, part)
        obj, plan = solve_pricing(
            state, part, inst_p.measures[0].masses, inst_p.measures[1].masses
        )
        p = expand_column(plan, state, size_b=2)
        assert p.total() == pytest.approx(1.0)
        assert len(p) <= 3 + 2 - 1
        for h in p.entries:
            assert h in set(state.best_index.tolist())
        # pair-row feasibility: aggregated digit masses match both pair measures
        sums = [np.zeros(3), np.zeros(2)]
        for h, q in p.entries.items():
            d = tuple_of(h, st).indices
            sums[0][d[0]] += q
            sums[1][d[1]] += q
        assert np.allclose(sums[0], inst_p.measures[0].masses, atol=1e-9)
        assert np.allclose(sums[1], inst_p.measures[1].masses, atol=1e-9)

    def test_reduced_cost_consistency_of_expansion(self):
        # cost(p) minus dual credit equals the transport part of the objective
        rng = np.random.default_rng(13)
        inst_p, part, st, state = setup(rng, [2, 3, 2, 2])
        master_rows = sum(st.sizes[2:])
        y = rng.normal(0, 0.3, master_rows)
        recompute_reduced_costs(state, y, part, st)
        best_costs(state, part)
        sup = inst_p.measures[0].masses
        dem = inst_p.measures[1].masses
        obj, plan = solve_pricing(state, part, sup, dem)
        p = expand_column(plan, state, size_b=len(dem))
        offset = st.row_offsets[2]
        cost_p = sum(q * state.costs[h] for h, q in p.entries.items())
        dual_credit = 0.0
        for h, q in p.entries.items():
            for r in column_support(h, st)[2:]:
                dual_credit += q * y[r - offset]
        assert cost_p - dual_credit == pytest.approx(obj, abs=1e-9)
