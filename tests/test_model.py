import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    column_support,
    combination_cost,
    digits_of,
    marginal_residual,
    satisfies_marginals,
)
from wbary import model
from wbary.cli import instance_from_dict, instance_to_dict
from wbary.driver import solve, solve_direct
from wbary.initial import greedy_vertex
from wbary.master import column_coeffs
from wbary.model import (
    CapacityError,
    ContractError,
    DiscreteMeasure,
    Instance,
    Plan,
    cost_vector,
    digits,
    make_strides,
    mean_costs,
)


def uniform_measure(points):
    pts = np.asarray(points, dtype=float)
    return DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))


def random_instance(rng, sizes, dim=2):
    measures = tuple(
        DiscreteMeasure(rng.random((s, dim)), _random_masses(rng, s)) for s in sizes
    )
    lam = _random_masses(rng, len(sizes))
    return Instance(measures, lam)


def _random_masses(rng, size):
    u = rng.uniform(0.2, 1.0, size)
    return u / u.sum()


class TestStrides:
    def test_mixed_radix_example(self):
        st = make_strides([2, 3, 2, 3])
        assert st.suffix_products == (18, 6, 3, 1)
        assert st.total == 36
        assert st.row_offsets == (0, 2, 5, 7, 10)

    def test_single_measure(self):
        st = make_strides([5])
        assert st.suffix_products == (1,)
        assert st.total == 5

    def test_two_measures(self):
        st = make_strides([2, 2])
        assert st.suffix_products == (2, 1)
        assert st.total == 4

    def test_recurrence(self):
        st = make_strides([3, 4, 2, 5])
        for i in range(3):
            assert st.suffix_products[i] == st.suffix_products[i + 1] * st.sizes[i + 1]
        assert st.suffix_products[0] * st.sizes[0] == st.total

    def test_overflow_rejected(self):
        with pytest.raises(CapacityError):
            make_strides([2] * 63)
        make_strides([2] * 62)  # just below the limit

    def test_bad_sizes(self):
        with pytest.raises(ContractError):
            make_strides([3, 0])


class TestInstanceStrides:
    def test_built_once_from_the_sizes(self):
        inst = random_instance(np.random.default_rng(0), [2, 3, 4])
        assert inst.strides is inst.strides
        assert inst.strides == make_strides(inst.sizes)

    def test_permuted_instance_has_its_own_strides(self):
        inst = random_instance(np.random.default_rng(1), [2, 3, 4, 5])
        order = (2, 3, 0, 1)
        assert inst.strides.sizes == (2, 3, 4, 5)
        assert inst.permuted(order).strides.sizes == (4, 5, 2, 3)
        assert inst.permuted(order).strides == make_strides([4, 5, 2, 3])

    def test_past_the_index_limit_only_solves_refuse(self):
        # 2^64 combinations: the instance constructs and round-trips, since
        # its strides are built on first read
        inst = random_instance(np.random.default_rng(2), [2] * 64, dim=1)
        again = instance_from_dict(instance_to_dict(inst))
        assert again.sizes == inst.sizes
        assert all(np.array_equal(a.points, b.points)
                   for a, b in zip(again.measures, inst.measures))
        for solver in (solve, solve_direct):
            with pytest.raises(CapacityError):
                solver(again)


class TestIndexing:
    def test_column_support_corners(self):
        st = make_strides([2, 3, 2, 3])
        assert column_support(0, st) == (0, 2, 5, 7)
        assert column_support(35, st) == (1, 4, 6, 9)
        assert column_support(6, st) == (0, 3, 5, 7)

    def test_out_of_range(self):
        st = make_strides([2, 3])
        with pytest.raises(IndexError):
            column_support(6, st)

    def test_known_encodings(self):
        st = make_strides([2, 3, 2, 3])
        d = digits(np.array([0, 35]), st)
        assert d.tolist() == [[0, 1], [0, 2], [0, 1], [0, 2]]
        assert np.ravel_multi_index((1, 2, 1, 2), st.sizes) == 35

    def test_bijection_exhaustive(self):
        for sizes in [(2, 3, 2, 3), (4,), (5, 5, 5), (2, 2, 2, 2, 2, 2)]:
            st = make_strides(sizes)
            d = digits(np.arange(st.total), st)
            assert d.shape == (len(sizes), st.total) and d.dtype == np.int64
            for h in range(st.total):
                assert np.ravel_multi_index(d[:, h], st.sizes) == h
                assert tuple(d[:, h].tolist()) == digits_of(h, sizes)

    def test_one_row_per_block_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sizes = rng.integers(1, 6, size=rng.integers(1, 6)).tolist()
            st = make_strides(sizes)
            for h in range(st.total):
                rows = column_support(h, st)
                assert len(rows) == len(sizes)
                for i, r in enumerate(rows):
                    assert st.row_offsets[i] <= r < st.row_offsets[i + 1]
                assert list(rows) == sorted(rows)

    def test_shared_leading_digits_share_leading_rows(self):
        st = make_strides([2, 3, 2, 3])
        for h in range(st.total):
            for h2 in range(st.total):
                d1, d2 = digits_of(h, st.sizes), digits_of(h2, st.sizes)
                if d1[:2] == d2[:2]:
                    assert column_support(h, st)[:2] == column_support(h2, st)[:2]


def divmod_digits(h, sizes):
    """Point index per measure of flat combination h, by Python-int divmod
    from the last measure, which varies fastest."""
    out = []
    for s in reversed(sizes):
        h, j = divmod(h, s)
        out.append(j)
    assert h == 0
    return out[::-1]


class TestNearTheIndexLimit:
    """Instances whose combination counts approach INDEX_LIMIT (2^62 and about
    3.9e18): decoding, the start vertex, master columns and costs stay exact
    in int64, and solve refuses the pricing state rather than overflowing."""

    @pytest.mark.parametrize("sizes", [[2] * 62, [7] * 22])
    def test_no_step_overflows(self, sizes):
        rng = np.random.default_rng(len(sizes))
        inst = random_instance(rng, sizes)
        st = inst.strides
        total = math.prod(sizes)
        assert st.total == total < model.INDEX_LIMIT
        hs = [0, 1, total // 2, total - 2, total - 1]
        hs += [int(h) for h in rng.integers(0, total, size=20)]
        d = digits(np.array(hs, dtype=np.int64), st)
        assert d.T.tolist() == [divmod_digits(h, sizes) for h in hs]

        w = greedy_vertex(inst)
        assert w.index.dtype == np.int64
        assert ((w.index >= 0) & (w.index < total)).all()
        assert satisfies_marginals(w, inst, st)
        # the master rows of the start vertex are the trailing measures'
        # masses, as init_rm requires
        rows = sum(sizes[2:])
        trailing = np.concatenate([m.masses for m in inst.measures[2:]])
        assert np.abs(column_coeffs(w, inst)[0] - trailing).max() <= 1e-12
        # one column over the sampled indices, against Python-int rows
        p = Plan(np.unique(np.array(hs, dtype=np.int64)), np.full(len(set(hs)), 0.5))
        expect = np.zeros(rows)
        for h, mass in zip(p.index.tolist(), p.mass):
            for i, j in enumerate(divmod_digits(h, sizes)[2:]):
                expect[st.row_offsets[i + 2] - st.row_offsets[2] + j] += mass
        assert np.array_equal(column_coeffs(p, inst)[0], expect)

        points = [m.points for m in inst.measures]
        costs = cost_vector(inst, np.array(hs, dtype=np.int64))
        for h, c in zip(hs, costs):
            direct = combination_cost(divmod_digits(h, sizes), points, inst.lambdas)
            assert abs(c - direct) <= 1e-9 * (1.0 + abs(direct))

        with pytest.raises(CapacityError, match="over the cap"):
            solve(inst)


def means_and_costs(inst):
    st = inst.strides
    index = np.arange(st.total)
    means, costs = mean_costs(inst, digits(index, st))
    assert np.array_equal(costs, cost_vector(inst, index))
    return means, costs


class TestCosts:
    def test_weighted_mean_examples(self):
        inst = Instance(
            (
                uniform_measure([[0.0, 0.0]]),
                uniform_measure([[3.0, 0.0]]),
                uniform_measure([[0.0, 3.0]]),
            ),
            np.array([1 / 3, 1 / 3, 1 / 3]),
        )
        means, costs = means_and_costs(inst)
        assert np.allclose(means, [[1.0, 1.0]])
        assert costs[0] == pytest.approx(4.0, abs=1e-12)

    def test_cost_is_translation_invariant(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        for shift in (1e7, 1e8):
            inst = Instance(
                tuple(uniform_measure([p + shift]) for p in pts),
                np.array([1 / 3, 1 / 3, 1 / 3]),
            )
            assert means_and_costs(inst)[1][0] == pytest.approx(4.0, abs=1e-6)

    def test_degenerate_weight(self):
        inst = Instance(
            (uniform_measure([[2.0, 2.0]]), uniform_measure([[9.0, 9.0]])),
            np.array([1.0, 0.0]),
        )
        assert np.allclose(means_and_costs(inst)[0], [[2.0, 2.0]])

    def test_convex_combination(self):
        inst = Instance(
            (uniform_measure([[0.0, 0.0]]), uniform_measure([[4.0, 0.0]])),
            np.array([0.25, 0.75]),
        )
        assert np.allclose(means_and_costs(inst)[0], [[3.0, 0.0]])

    def test_identical_points_zero_cost(self):
        inst = Instance(
            (uniform_measure([[1.0, 2.0]]), uniform_measure([[1.0, 2.0]])),
            np.array([0.5, 0.5]),
        )
        assert means_and_costs(inst)[1][0] == pytest.approx(0.0)

    def test_single_measure_zero_cost(self):
        inst = Instance((uniform_measure([[1.0, 1.0], [2.0, 5.0]]),), np.array([1.0]))
        assert np.allclose(means_and_costs(inst)[1], 0.0, rtol=0.0, atol=1e-12)

    def test_cost_vector_matches_direct_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng, rng.integers(1, 5, size=3).tolist())
            st = inst.strides
            vec = cost_vector(inst, np.arange(st.total))
            points = [m.points for m in inst.measures]
            for h in range(st.total):
                direct = combination_cost(digits_of(h, st.sizes), points, inst.lambdas)
                assert abs(vec[h] - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_cost_vector_of_any_index_subset_equals_whole(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, [3, 4, 2], dim=3)
        st = inst.strides
        whole = cost_vector(inst, np.arange(st.total))
        subset = rng.permutation(st.total)[:7]
        assert np.array_equal(cost_vector(inst, subset), whole[subset])
        assert cost_vector(inst, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_tiled_costs_equal_one_tile(self, monkeypatch):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, [3, 4, 5])
        st = inst.strides
        whole = cost_vector(inst, np.arange(st.total))
        monkeypatch.setattr(model, "BLOCK", 7)
        assert np.array_equal(cost_vector(inst, np.arange(st.total)), whole)
        assert np.array_equal(cost_vector(inst, range(st.total)), whole)
        assert np.array_equal(cost_vector(inst, range(5, 40)), whole[5:40])

    def test_peak_is_the_output_and_one_tile(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, [128, 128, 64])
        st = inst.strides
        assert st.total >= 8 * model.BLOCK
        # the tile's digits, means, differences and costs, as solve charges it
        tile = 8 * (inst.n + 3 * inst.dim + 2) * model.BLOCK
        # an index array made before tracing starts, and a range, of which
        # only one tile at a time is expanded: an index over all
        # combinations would add cost.nbytes
        for index in (np.arange(st.total), range(st.total)):
            tracemalloc.start()
            try:
                cost = cost_vector(inst, index)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < cost.nbytes + tile


def two_pass_loop(inst, d):
    """mean_costs written as a loop over the measures, one gather of one
    measure's points per step: the weighted mean, then the weighted squared
    distances to it, each summed from zero in measure order."""
    mean = np.zeros((d.shape[1], inst.dim))
    for lam, m, j in zip(inst.lambdas, inst.measures, d):
        mean += lam * m.points.take(j, axis=0)
    cost = np.zeros(d.shape[1])
    for lam, m, j in zip(inst.lambdas, inst.measures, d):
        diff = m.points.take(j, axis=0) - mean
        cost += lam * (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    return mean, cost


def bits(a):
    """The bit patterns of a float array: equal bits, equal values and signs."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def offset_instance(rng, n, dim):
    """Random sizes 1-3, points around an offset, one zero weight for n >= 2
    (its terms are -0.0 at negative coordinates)."""
    sizes = rng.integers(1, 4, n).tolist()
    offset = rng.choice([0.0, -3.0, 1e7])
    measures = tuple(
        DiscreteMeasure(offset + rng.normal(0.0, 1.0, (s, dim)), _random_masses(rng, s))
        for s in sizes
    )
    lam = rng.uniform(0.2, 1.0, n)
    if n >= 2:
        lam[rng.integers(n)] = 0.0
    return Instance(measures, lam / lam.sum())


class TestMeasureAxisSums:
    """mean_costs gathers every measure's points at once and sums over the
    measure axis; it must round exactly as the per-measure loop does."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mean_costs_equal_the_two_pass_loop(self, n):
        rng = np.random.default_rng(50 + n)
        for dim in (1, 2, 3):
            for _ in range(3):
                inst = offset_instance(rng, n, dim)
                st = inst.strides
                for k in (0, 1, 2, 5, min(st.total, 40)):
                    d = digits(rng.integers(0, st.total, k), st)
                    mean, cost = mean_costs(inst, d)
                    loop_mean, loop_cost = two_pass_loop(inst, d)
                    assert mean.shape == (k, dim) and cost.shape == (k,)
                    assert np.array_equal(bits(mean), bits(loop_mean)), (dim, k)
                    assert np.array_equal(bits(cost), bits(loop_cost)), (dim, k)

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_tiles_equal_the_loop(self, n, monkeypatch):
        # tiles of BLOCK // (n (dim + 1)) = 3 combinations, over ranges that
        # leave a last tile of one, whose measure sums numpy would otherwise
        # add pairwise
        rng = np.random.default_rng(70 + n)
        for dim in (1, 2, 3):
            monkeypatch.setattr(model, "BLOCK", 3 * n * (dim + 1) + 2)
            inst = offset_instance(rng, n, dim)
            st = inst.strides
            whole = two_pass_loop(inst, digits(np.arange(st.total), st))[1]
            for index in (range(st.total), np.arange(st.total), range(0, min(st.total, 7))):
                cost = cost_vector(inst, index)
                assert np.array_equal(bits(cost), bits(whole[index])), (dim, index)


class TestPlan:
    def test_marginal_predicate(self):
        m1 = DiscreteMeasure(np.zeros((2, 1)), np.array([0.5, 0.5]))
        m2 = DiscreteMeasure(np.ones((2, 1)), np.array([0.25, 0.75]))
        inst = Instance((m1, m2), np.array([0.5, 0.5]))
        st = inst.strides
        w = Plan(np.array([0, 1, 3]), np.array([0.25, 0.25, 0.5]))
        assert satisfies_marginals(w, inst, st)
        bad = Plan(np.array([0, 3]), np.array([0.5, 0.5]))
        assert not satisfies_marginals(bad, inst, st)
        assert marginal_residual(bad, inst, st) == pytest.approx(0.25)


class TestValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ContractError):
            DiscreteMeasure(np.zeros((2, 2)), np.array([0.5, 0.4]))

    def test_masses_positive(self):
        with pytest.raises(ContractError):
            DiscreteMeasure(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_dimension_consistency(self):
        m1 = uniform_measure([[0.0, 0.0]])
        m2 = uniform_measure([[0.0, 0.0, 0.0]])
        with pytest.raises(ContractError):
            Instance((m1, m2), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_finite(self, bad):
        with pytest.raises(ContractError, match="points must be finite"):
            DiscreteMeasure(np.array([[0.0, bad], [1.0, 1.0]]), np.array([0.5, 0.5]))

    def test_squared_norms_stay_below_the_limit(self):
        # |x - y|^2 <= 4 max(|x|^2, |y|^2), so below SQNORM_LIMIT every
        # squared distance, and every cost, stays finite
        edge = math.sqrt(model.SQNORM_LIMIT)
        uniform_measure([[0.999 * edge, 0.0], [0.0, -0.999 * edge]])
        for bad in ([[1.001 * edge, 0.0]], [[0.0, 0.8 * edge], [-0.8 * edge, 0.8 * edge]]):
            with pytest.raises(ContractError, match="squared norms of at most 4.494e"):
                uniform_measure(bad)

    def test_points_need_a_coordinate(self):
        with pytest.raises(ContractError, match="at least one coordinate"):
            DiscreteMeasure(np.zeros((2, 0)), np.array([0.5, 0.5]))

    def test_masses_finite(self):
        with pytest.raises(ContractError, match="masses must be finite"):
            DiscreteMeasure(np.zeros((2, 2)), np.array([np.nan, 0.5]))

    def test_weights_finite(self):
        m1 = uniform_measure([[0.0, 0.0]])
        with pytest.raises(ContractError, match="weights must be finite"):
            Instance((m1, m1), np.array([np.nan, 1.0]))

    def test_lambda_sum(self):
        m1 = uniform_measure([[0.0, 0.0]])
        with pytest.raises(ContractError):
            Instance((m1, m1), np.array([0.5, 0.4]))

    def test_measures_immutable(self):
        m = uniform_measure([[0.0, 1.0]])
        with pytest.raises(ValueError):
            m.points[0, 0] = 5.0
