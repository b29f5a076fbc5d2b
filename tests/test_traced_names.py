"""The benchmark's tracer (bench/spans.py) wraps solver functions by name and
reads some of their calls' positional arguments by position, so a renamed
function or a reordered parameter would break only the benchmark. These
checks hold the names and positions it relies on."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
from wbary import DiscreteMeasure, Instance  # noqa: E402
from wbary.driver import SolveConfig, solve_master  # noqa: E402

# The parameter each counter of spans.AFTER reads at each position of the
# traced call's arguments, and how many it unpacks.
READS = {
    "pricing.update_reduced_costs": (5, {1: "y_old", 2: "y_new", 4: "strides_perm"}),
    "pricing.recompute_reduced_costs": (4, {1: "y", 3: "strides_perm"}),
    "master.solve_rm": (1, {0: "state"}),
}


def resolve(qual):
    mod, name = qual.split(".")
    return getattr(importlib.import_module("wbary." + mod), name)


def test_every_traced_name_is_a_solver_function():
    for qual in spans.TRACED:
        assert inspect.isfunction(resolve(qual)), qual


def test_counters_read_the_parameters_they_name(monkeypatch):
    assert READS.keys() == spans.AFTER.keys()
    for qual, (count, reads) in READS.items():
        params = list(inspect.signature(resolve(qual)).parameters.values())
        assert len(params) == count, qual
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), qual
        assert {i: params[i].name for i in reads} == reads, qual

    # and the solver passes every one of them positionally, so each counter
    # sees the call's arguments at those positions
    seen = {}
    for qual, counter in spans.AFTER.items():
        def recording(counts, args, qual=qual, counter=counter):
            seen.setdefault(qual, []).append(len(args))
            counter(counts, args)

        monkeypatch.setitem(spans.AFTER, qual, recording)
    rng = np.random.default_rng(0)
    ms = tuple(DiscreteMeasure(rng.random((3, 2)), np.full(3, 1 / 3)) for _ in range(3))
    tracer = spans.Tracer()
    with tracer.installed():
        assert solve_master(Instance(ms, np.full(3, 1 / 3)), SolveConfig()).converged
    assert {qual: set(lengths) for qual, lengths in seen.items()} == {
        qual: {count} for qual, (count, _) in READS.items()
    }
