"""Benchmark instances: fixed cases per workload, generated as `wbary gen` does.

An instance is plain numpy data (points, masses, weights) so the checker and
the LP reference never go through the solver's own data model. Each case is
pinned by its instance seed; the run's ``--seed`` only orders the solves (see
README.md for why the instances themselves do not follow the run seed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Case:
    """One instance of a workload and the solver settings it is solved with."""

    sizes: tuple[int, ...]
    masses: str  # "uniform" or "random", as `wbary gen --masses`
    seed: int  # instance seed, as `wbary gen --seed`
    start: str = "greedy"
    pair: str = "large"

    @property
    def key(self) -> str:
        sizes = ",".join(str(s) for s in self.sizes)
        return f"[{sizes}]/{self.masses}/seed={self.seed}"


@dataclass(frozen=True)
class Data:
    """Instance data: per-measure points (size, dim) and masses, plus weights."""

    points: tuple[np.ndarray, ...]
    masses: tuple[np.ndarray, ...]
    weights: np.ndarray

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for a in (*self.points, *self.masses, self.weights):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
            h.update(str(a.shape).encode())
        return h.hexdigest()


WORKLOADS: dict[str, tuple[Case, ...]] = {
    # Twelve 3-point measures, 3^12 = 531441 combinations: the passes over
    # the combination-length vectors dominate; master and transport are tiny.
    "wide": (Case((3,) * 12, "uniform", 0), Case((3,) * 12, "uniform", 2)),
    # Five 8-point measures, 8^5 = 32768 combinations and several hundred
    # iterations each: master re-solves and transport pricing dominate.
    "deep": tuple(Case((8,) * 5, "uniform", s) for s in range(3)),
    # Heterogeneous sizes, random masses, 2-approximation start and the
    # small pricing pair: a cold relocation LP and a few long pricing rows.
    "mixed": (
        Case((8, 6, 5, 4, 3, 3, 3), "random", 0, start="2app", pair="small"),
        Case((10, 8, 6, 5, 4, 3, 3), "random", 0, start="2app", pair="small"),
    ),
}

# Solved once per set-up so lazy imports and first-call costs are paid
# before timing; small enough to add little to set-up time.
WARMUP = Case((3, 3, 3), "uniform", 0)


def generate(case: Case, dim: int = 2) -> Data:
    """Points uniform on the unit square, drawn in the order `wbary gen` uses."""
    rng = np.random.default_rng(case.seed)
    points, masses = [], []
    for s in case.sizes:
        points.append(rng.random((s, dim)))
        if case.masses == "uniform":
            masses.append(np.full(s, 1.0 / s))
        else:
            u = rng.uniform(0.2, 1.0, s)
            masses.append(u / u.sum())
    n = len(case.sizes)
    return Data(tuple(points), tuple(masses), np.full(n, 1.0 / n))
