"""Invariance of the column-generation optimum under changes to the input.

Permuting the measures, permuting the points within each measure, and
splitting one point's mass between two copies of that point leave the
barycenter LP's optimum unchanged. Each transformed instance must converge
to the original's optimum as HiGHS reports it on the full LP, which shares
no code with the solver.

Translating every point by 1e7 or 1e8 must leave the direct solve and the
two-measure route at HiGHS's optimum of the translated LP. Column generation
over three or more measures is not tested at such offsets: its split pricing
still scores combinations in a form that cancels there. Scale is not
covered either.

On the real line the comonotone coupling is optimal, which gives an exact
oracle at any size (oracles.quantile_barycenter). It is checked against
HiGHS, and column generation is held to it on measures on a random line in
1-D, 2-D and 3-D, offset by at most 10 from the origin, on cases that take
the unit route under every pricing pair, and at C7's size of about 1.26e7
combinations in 1-D, which takes the unit route too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import barycenter_lp_arrays, highs_optimum, quantile_barycenter
from wbary.driver import SolveConfig, solve, solve_direct
from wbary.model import DiscreteMeasure, Instance
from wbary.pricing import choose_partition

SETTINGS = settings(derandomize=True, deadline=None, max_examples=6)

# Every start vertex with every pricing pair.
VARIANTS = pytest.mark.parametrize(
    "cfg",
    [SolveConfig(start=s, pair_variant=v) for s in ("greedy", "2app")
     for v in ("any", "large", "small")],
    ids=lambda c: f"{c.start}-{c.pair_variant}",
)


@st.composite
def cases(draw, n_range=(3, 4)):
    """An instance as point, mass and weight arrays."""
    n = draw(st.integers(*n_range))
    sizes = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    dim = draw(st.integers(1, 3))
    uniform = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points, masses = [], []
    for s in sizes:
        points.append(rng.random((s, dim)))
        if uniform:
            masses.append(np.full(s, 1.0 / s))
        else:
            u = rng.uniform(0.2, 1.0, s)
            masses.append(u / u.sum())
    u = rng.uniform(0.2, 1.0, n)
    return points, masses, u / u.sum()


def instance(points, masses, weights):
    return Instance(
        tuple(DiscreteMeasure(p, m) for p, m in zip(points, masses)), weights
    )


def assert_reaches_optimum(points, masses, weights, cfg, opt):
    res = solve(instance(points, masses, weights), cfg)
    assert res.converged
    assert opt - 1e-9 <= res.objective <= opt + cfg.tol + 1e-9


def optimum(points, masses, weights):
    return highs_optimum(*barycenter_lp_arrays(points, masses, weights))


@VARIANTS
@SETTINGS
@given(cases(), st.randoms(use_true_random=False))
def test_measure_order_does_not_matter(cfg, case, random):
    points, masses, weights = case
    opt = optimum(points, masses, weights)
    order = list(range(len(points)))
    random.shuffle(order)
    assert_reaches_optimum(
        [points[i] for i in order], [masses[i] for i in order], weights[order], cfg, opt
    )


@VARIANTS
@SETTINGS
@given(cases(), st.randoms(use_true_random=False))
def test_point_order_does_not_matter(cfg, case, random):
    points, masses, weights = case
    opt = optimum(points, masses, weights)
    orders = []
    for p in points:
        order = list(range(len(p)))
        random.shuffle(order)
        orders.append(order)
    assert_reaches_optimum(
        [p[o] for p, o in zip(points, orders)],
        [m[o] for m, o in zip(masses, orders)],
        weights, cfg, opt,
    )


@VARIANTS
@SETTINGS
@given(cases(), st.data())
def test_splitting_a_point_does_not_matter(cfg, case, data):
    points, masses, weights = case
    opt = optimum(points, masses, weights)
    i = data.draw(st.integers(0, len(points) - 1), label="measure")
    j = data.draw(st.integers(0, len(points[i]) - 1), label="point")
    share = data.draw(st.sampled_from([0.5, 0.25, 0.9]), label="share")
    points, masses = list(points), list(masses)
    points[i] = np.vstack([points[i], points[i][j]])
    split = np.append(masses[i], share * masses[i][j])
    split[j] -= split[-1]
    masses[i] = split
    assert_reaches_optimum(points, masses, weights, cfg, opt)


SHIFTS = pytest.mark.parametrize("shift", [1e7, 1e8])


@SHIFTS
@SETTINGS
@given(cases())
def test_translation_does_not_matter_to_solve_direct(shift, case):
    points, masses, weights = case
    points = [p + shift for p in points]
    opt = optimum(points, masses, weights)
    res = solve_direct(instance(points, masses, weights))
    assert abs(res.objective - opt) <= 1e-9 * (1 + abs(opt))


@SHIFTS
@SETTINGS
@given(cases(n_range=(2, 2)))
def test_translation_does_not_matter_to_a_pair(shift, case):
    points, masses, weights = case
    points = [p + shift for p in points]
    opt = optimum(points, masses, weights)
    res = solve(instance(points, masses, weights))
    assert abs(res.objective - opt) <= 1e-9 * (1 + abs(opt))


def line_case(seed, sizes, dim, uniform):
    """Measures on a random line in R^dim through an offset of norm at most
    10: their coordinates along the line, masses and weights, the line's
    direction and offset, and the instance."""
    rng = np.random.default_rng(seed)
    t = [rng.random(s) for s in sizes]
    masses = [
        np.full(s, 1.0 / s) if uniform else rng.dirichlet(np.ones(s)) for s in sizes
    ]
    weights = rng.dirichlet(np.ones(len(sizes)))
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    offset = rng.uniform(-1.0, 1.0, dim) * 10.0 / np.sqrt(dim)
    points = [x[:, None] * u + offset for x in t]
    return t, masses, weights, u, offset, instance(points, masses, weights)


def test_quantile_oracle_matches_highs():
    for k in range(24):
        rng = np.random.default_rng(k)
        n = int(rng.integers(3, 6))
        sizes = rng.integers(2, 7, n)
        t = [rng.random(s) for s in sizes]
        if k % 2:
            masses = [np.full(s, 1.0 / s) for s in sizes]
        else:
            masses = [rng.dirichlet(np.ones(s)) for s in sizes]
        weights = rng.dirichlet(np.ones(n))
        objective = quantile_barycenter(t, masses, weights)[0]
        opt = optimum([x[:, None] for x in t], masses, weights)
        assert abs(objective - opt) <= 1e-12


# (sizes, uniform masses), each at most 5e4 combinations. With uniform masses
# cumulative masses tie across measures and several couplings are optimal,
# so only the objective is compared.
LINE_CASES = (
    ([5, 4, 3], False), ([6, 5, 4, 3], True), ([8, 7, 6, 5, 4], False),
    ([4] * 7, False), ([3] * 9, False), ([2] * 15, False), ([8] * 5, False),
    ([6] * 6, False), ([12, 10, 8, 6, 4], False), ([20, 15, 10, 8], False),
    ([5] * 6, True),
)


@VARIANTS
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collinear_instances_reach_the_quantile_optimum(cfg, dim):
    for k, (sizes, uniform) in enumerate(LINE_CASES):
        t, masses, weights, u, offset, inst = line_case(800 + k, sizes, dim, uniform)
        objective, mean, mass, assignment = quantile_barycenter(t, masses, weights)
        res = solve(inst, cfg)
        assert res.converged
        assert abs(res.objective - objective) <= 1e-12
        if uniform:
            continue
        got = sorted(res.barycenter, key=lambda p: p.assignment)
        want = sorted(zip(assignment, mass, mean))
        assert [p.assignment for p in got] == [a for a, _, _ in want]
        for p, (_, q, x) in zip(got, want):
            assert abs(p.mass - q) <= 1e-12
            assert np.abs(p.coords - (x * u + offset)).max() <= 1e-12


# Collinear cases whose pricing pair, under every variant, holds fewer than
# a third of the points: solve takes the unit route with each of them.
UNIT_LINE_CASES = (
    ([4] * 7, False), ([3] * 9, False), ([2] * 15, False), ([3] * 8, True),
    ([4, 3, 3, 3, 3, 3, 3, 3], False), ([5, 4, 3, 3, 3, 3, 3, 2, 2], False),
)


@VARIANTS
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unit_route_reaches_the_quantile_optimum(cfg, dim):
    for k, (sizes, uniform) in enumerate(UNIT_LINE_CASES):
        t, masses, weights, u, offset, inst = line_case(850 + k, sizes, dim, uniform)
        pair = choose_partition(inst, cfg.pair_variant).pair
        assert 3 * sum(sizes[i] for i in pair) < sum(sizes)
        objective, mean, mass, assignment = quantile_barycenter(t, masses, weights)
        res = solve(inst, cfg)
        assert res.converged
        assert res.pricing_calls == res.iterations  # no seed pricing, no misprice
        assert res.lower_bound <= objective + 1e-12
        assert abs(res.objective - objective) <= 1e-12
        if uniform:
            continue
        got = sorted(res.barycenter, key=lambda p: p.assignment)
        want = sorted(zip(assignment, mass, mean))
        assert [p.assignment for p in got] == [a for a, _, _ in want]
        for p, (_, q, x) in zip(got, want):
            assert abs(p.mass - q) <= 1e-12
            assert np.abs(p.coords - (x * u + offset)).max() <= 1e-12


def test_column_generation_holds_the_quantile_bound_at_c7_size():
    # C7's sizes, about 1.26e7 combinations, in 1-D with random masses. The
    # large pair holds 8 of 47 points, so solve takes the unit route, which
    # prices until the gap closes to rounding and so ends at the exact
    # optimum, not merely within tol of it.
    t, masses, weights, _, _, inst = line_case(820, [4] * 11 + [3], 1, False)
    objective = quantile_barycenter(t, masses, weights)[0]
    res = solve(inst, SolveConfig(pair_variant="large"))
    assert res.converged
    assert res.lower_bound <= objective + 1e-12
    assert res.objective - objective <= res.objective - res.lower_bound + 1e-12
    assert abs(res.objective - objective) <= 1e-12
