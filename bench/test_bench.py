"""Self-tests of the benchmark: its checker, its LP references and its tracer.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wbary  # noqa: E402
from wbary import cli  # noqa: E402

import lp_reference  # noqa: E402
import run  # noqa: E402
from check import check_result  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Case, generate  # noqa: E402

SMALL = Case((3, 4, 3), "random", 5)


def instance(data):
    return wbary.Instance(
        tuple(wbary.DiscreteMeasure(p, m) for p, m in zip(data.points, data.masses)),
        data.weights,
    )


@pytest.fixture(scope="module")
def solved():
    pytest.importorskip("scipy")
    data = generate(SMALL)
    result = wbary.solve(instance(data))
    return data, result, lp_reference.full_lp_optimum(data)


def faults_of(solved, mutate):
    data, result, optimum = solved
    bad = copy.deepcopy(result)
    mutate(bad)
    return check_result(data, bad, 1e-6, optimum)


def test_a_correct_solve_passes(solved):
    data, result, optimum = solved
    assert check_result(data, result, 1e-6, optimum) == []


def test_rejects_mass_moved_between_two_points(solved):
    def move(r):
        a, b = r.barycenter[0], r.barycenter[1]
        delta = a.mass / 2
        a.mass -= delta
        b.mass += delta

    assert any("marginal" in f for f in faults_of(solved, move))


def test_rejects_a_point_off_its_weighted_mean(solved):
    def shift(r):
        r.barycenter[0].coords = r.barycenter[0].coords + np.array([1e-6, 0.0])

    assert any("weighted mean" in f for f in faults_of(solved, shift))


def test_rejects_an_objective_off_by_1e_4(solved):
    def bump(r):
        r.objective += 1e-4

    faults = faults_of(solved, bump)
    assert any("reported objective" in f for f in faults)
    assert any("above the LP optimum" in f for f in faults)


def test_rejects_a_solve_reported_as_not_converged(solved):
    def unconverge(r):
        r.converged = False

    assert faults_of(solved, unconverge) == ["not converged"]


def test_rejects_a_missing_optimum(solved):
    data, result, _ = solved
    assert check_result(data, result, 1e-6, None) == ["no LP reference for this instance"]


def test_generator_matches_wbary_gen():
    case = WORKLOADS["mixed"][0]
    out = io.StringIO()
    argv = ["gen", "--sizes", ",".join(map(str, case.sizes)),
            "--masses", case.masses, "--seed", str(case.seed)]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    doc = json.loads(out.getvalue())
    data = generate(case)
    np.testing.assert_array_equal(doc["weights"], data.weights)
    for m, p, q in zip(doc["measures"], data.points, data.masses):
        np.testing.assert_array_equal(m["points"], p)
        np.testing.assert_array_equal(m["masses"], q)


def test_cache_covers_every_case_and_matches_a_fresh_lp():
    refs = lp_reference.load()
    for cases in WORKLOADS.values():
        for case in cases:
            assert refs[case.key]["sha256"] == generate(case).fingerprint(), case.key
    pytest.importorskip("scipy")
    case = WORKLOADS["deep"][0]
    assert lp_reference.full_lp_optimum(generate(case)) == pytest.approx(
        refs[case.key]["objective"], rel=0, abs=1e-12
    )


def test_benchmark_json_matches_the_metrics_reported():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_span_self_times_add_up_and_originals_come_back():
    original = wbary.driver.greedy_vertex
    inst = instance(generate(WORKLOADS["deep"][0]))
    tracer = Tracer()
    with tracer.installed():
        wbary.solve(inst)
    assert wbary.driver.greedy_vertex is original
    root = tracer.spans[0]
    assert root[2] == "driver.solve" and root[1] is None
    assert all(s[1] is not None for s in tracer.spans[1:])
    selves = tracer.self_times(0)
    assert sum(selves.values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    assert set(selves) >= {"model.cost_vector", "master.solve_rm", "simplex.solve_columns",
                           "transport.solve_transportation", "initial.greedy_vertex"}
    assert tracer.counts["master.pivots"] > 0
    assert tracer.counts["pricing.changed_duals"] > 0
