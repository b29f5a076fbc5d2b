"""Command-line interface: instance files, random generation, solving.

Instance files are JSON with top-level "weights" and "measures"; a CSV
importer accepts tabular rows of measure id, coordinates, and mass. Results
are emitted as JSON, optionally with a per-iteration trace CSV. Floats pass
through Python's shortest round-trip repr, so emitted files reload exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .driver import START_VARIANTS, SolveConfig, SolveResult, solve, solve_direct
from .model import ContractError, DiscreteMeasure, Instance
from .pricing import PAIR_VARIANTS


class ParseError(ValueError):
    """Instance file rejected, with a field-level diagnostic."""


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ParseError(f"{where}: missing required field {key!r}")
    return doc[key]


def instance_from_dict(doc: dict) -> Instance:
    weights = _require(doc, "weights", "top level")
    raw_measures = _require(doc, "measures", "top level")
    if not isinstance(raw_measures, list) or not raw_measures:
        raise ParseError("top level: 'measures' must be a nonempty array")
    measures = []
    for i, entry in enumerate(raw_measures):
        where = f"measures[{i}]"
        points = _require(entry, "points", where)
        masses = _require(entry, "masses", where)
        try:
            measures.append(DiscreteMeasure(np.asarray(points, dtype=float),
                                            np.asarray(masses, dtype=float)))
        except (ContractError, ValueError, TypeError, OverflowError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return Instance(tuple(measures), np.asarray(weights, dtype=float))
    except (ContractError, ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"top level: {exc}") from exc


def instance_to_dict(inst: Instance) -> dict:
    return {
        "weights": inst.lambdas.tolist(),
        "measures": [
            {"points": m.points.tolist(), "masses": m.masses.tolist()}
            for m in inst.measures
        ],
        "n_combinations": math.prod(inst.sizes),
    }


def load_instance_csv(path: str) -> Instance:
    """Rows of: measure id, coordinates..., mass. Weights are uniform."""
    groups: dict[str, list[list[float]]] = {}
    order: list[str] = []
    width = first = None
    header_allowed = True
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not any(field.strip() for field in row):
                continue  # empty, whitespace-only or all-blank row
            header, header_allowed = header_allowed, False
            try:
                values = [float(x) for x in row[1:]]
            except ValueError:
                if header:
                    continue  # the first non-blank row may be a header
                raise ParseError(f"line {lineno}: non-numeric value in {row!r}")
            if len(values) < 2:
                raise ParseError(f"line {lineno}: need coordinates and a mass")
            if width is None:
                width, first = len(values), lineno
            elif len(values) != width:
                raise ParseError(f"line {lineno}: {len(values)} values after the "
                                 f"measure id, but line {first} has {width}")
            key = row[0].strip()
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(values)
    if not order:
        raise ParseError("no data rows found")
    measures = []
    for key in order:
        rows = np.asarray(groups[key])
        try:
            measures.append(DiscreteMeasure(rows[:, :-1], rows[:, -1]))
        except ContractError as exc:
            raise ParseError(f"measure {key!r}: {exc}") from exc
    n = len(measures)
    try:
        return Instance(tuple(measures), np.full(n, 1.0 / n))
    except ContractError as exc:
        raise ParseError(str(exc)) from exc


def load_instance(path: str) -> Instance:
    if path.endswith(".csv"):
        return load_instance_csv(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return instance_from_dict(doc)


def result_to_dict(result: SolveResult) -> dict:
    return {
        "objective": result.objective,
        "lower_bound": result.lower_bound,
        "iterations": result.iterations,
        "pricing_calls": result.pricing_calls,
        "converged": result.converged,
        "barycenter": [
            {
                "coords": p.coords.tolist(),
                "mass": p.mass,
                "assignment": list(p.assignment),
            }
            for p in result.barycenter
        ],
        "timings": result.timings,
        "trace": [
            {"iter": t.iteration, "rm_obj": t.rm_objective,
             "pricing_obj": t.pricing_objective, "lb": t.lb}
            for t in result.trace
        ],
    }


def _write_text(text: str, path: str | None):
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            print(text, file=fh)


def cmd_solve(args) -> int:
    try:
        inst = load_instance(args.input)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        if args.direct:
            result = solve_direct(inst)
        else:
            cfg = SolveConfig(
                start=args.start,
                pair_variant=args.pair,
                tol=args.tol,
                max_iter=args.max_iter,
            )
            result = solve(inst, cfg)
    except (ValueError, RuntimeError) as exc:  # bad settings, capacity, numerics
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_text(json.dumps(result_to_dict(result), indent=2), args.out)
        if args.trace_csv:
            with open(args.trace_csv, "w", newline="") as fh:
                fh.write("iter,rm_obj,pricing_obj,lb\n")
                for t in result.trace:
                    fh.write(f"{t.iteration},{t.rm_objective!r},{t.pricing_objective!r},"
                             f"{t.lb!r}\n")
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0 if result.converged else 2


def cmd_gen(args) -> int:
    if args.sizes:
        try:
            sizes = [int(x) for x in args.sizes.split(",")]
        except ValueError:
            print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
            return 1
        if args.n is not None and args.n != len(sizes):
            print("error: --n disagrees with the number of --sizes", file=sys.stderr)
            return 1
    elif args.size is not None and args.n is not None:
        sizes = [args.size] * args.n
    else:
        print("error: give --sizes, or both --n and --size", file=sys.stderr)
        return 1
    if not sizes or any(s < 1 for s in sizes):
        print("error: sizes must be positive", file=sys.stderr)
        return 1
    if args.dim < 1:
        print("error: --dim must be at least 1", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    measures = []
    for s in sizes:
        points = rng.random((s, args.dim))
        if args.masses == "uniform":
            masses = np.full(s, 1.0 / s)
        else:
            u = rng.uniform(0.2, 1.0, s)
            masses = u / u.sum()
        measures.append(DiscreteMeasure(points, masses))
    n = len(sizes)
    inst = Instance(tuple(measures), np.full(n, 1.0 / n))
    _write_text(json.dumps(instance_to_dict(inst), indent=2), None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbary",
        description="Exact discrete Wasserstein barycenters by column generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file")
    ps.add_argument("--input", required=True, help="instance JSON (or CSV) path")
    defaults = SolveConfig()
    ps.add_argument("--start", choices=START_VARIANTS, default=defaults.start)
    ps.add_argument("--pair", choices=PAIR_VARIANTS, default=defaults.pair_variant)
    ps.add_argument("--tol", type=float, default=defaults.tol)
    ps.add_argument("--max-iter", type=int, default=defaults.max_iter)
    ps.add_argument("--direct", action="store_true",
                    help="solve the full LP instead of column generation")
    ps.add_argument("--out", default=None, help="result JSON path (default stdout)")
    ps.add_argument("--trace-csv", default=None,
                    help="write per-iteration iter,rm_obj,pricing_obj,lb rows")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("gen", help="generate a random instance on [0,1]^d")
    pg.add_argument("--n", type=int, default=None, help="number of measures")
    pg.add_argument("--sizes", default=None, help="comma-separated support sizes")
    pg.add_argument("--size", type=int, default=None, help="common support size")
    pg.add_argument("--dim", type=int, default=2)
    pg.add_argument("--masses", choices=["uniform", "random"], default="uniform")
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
