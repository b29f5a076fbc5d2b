"""Invariance of the column-generation optimum under changes to the input.

Permuting the measures, permuting the points within each measure, and
splitting one point's mass between two copies of that point leave the
barycenter LP's optimum unchanged. Each transformed instance must converge
to the original's optimum as HiGHS reports it on the full LP, which shares
no code with the solver. Translation and scale are not covered: the solver
still depends on the units and offset of its input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import barycenter_lp_arrays, highs_optimum
from wbary.driver import SolveConfig, solve
from wbary.model import DiscreteMeasure, Instance

SETTINGS = settings(derandomize=True, deadline=None, max_examples=6)

# Every start vertex with every pricing pair.
VARIANTS = pytest.mark.parametrize(
    "cfg",
    [SolveConfig(start=s, pair_variant=v) for s in ("greedy", "2app")
     for v in ("any", "large", "small")],
    ids=lambda c: f"{c.start}-{c.pair_variant}",
)


@st.composite
def cases(draw):
    """An instance as point, mass and weight arrays."""
    n = draw(st.integers(3, 4))
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


def assert_reaches_optimum(points, masses, weights, cfg, opt):
    inst = Instance(
        tuple(DiscreteMeasure(p, m) for p, m in zip(points, masses)), weights
    )
    res = solve(inst, cfg)
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
