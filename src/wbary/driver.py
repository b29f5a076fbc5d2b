"""Column generation driver and the direct full-LP reference solver.

The loop alternates master re-solves with transportation pricing until the
pricing objective clears the stopping tolerance. One or two input measures
never enter the loop: a single measure is its own barycenter, and for two
measures the whole problem is one balanced transportation problem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import master as master_mod
from . import pricing as pricing_mod
from . import simplex
from .accounting import AllocationLedger
from .master import BarycenterPoint
from .model import (
    CapacityError,
    Combination,
    Instance,
    combination_cost,
    cost_vector,
    make_strides,
    tuple_of,
    weighted_mean,
)
from .initial import greedy_vertex, repair_to_vertex, two_approx
from .transport import TransportationProblem, solve_transportation

STEP_LABELS = (
    "setup-RM",
    "solve-RM",
    "update-reduced-costs",
    "calc-best-costs",
    "solve-pricing",
)

# Iterations between full rebuilds of the dual sum, which cap the
# floating-point drift of the incremental updates.
RECOMPUTE_PERIOD = 500


class TraceEntry(NamedTuple):
    iteration: int
    rm_objective: float
    pricing_objective: float


@dataclass
class SolveConfig:
    start: str = "greedy"  # or "2app"
    pair_variant: str = "large"  # or "any", "small"
    tol: float = 1e-6
    max_iter: int = 100_000
    memory_cap: int = 2_000_000_000  # bytes allowed for combination-sized arrays

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.start not in ("greedy", "2app"):
            raise ValueError(f"unknown start {self.start!r}")


@dataclass
class SolveResult:
    barycenter: list[BarycenterPoint]
    objective: float
    iterations: int
    converged: bool
    timings: dict[str, float]
    # Declared, not measured: the peak sum of the arrays registered with the
    # AllocationLedger (cost vector, dual sum, pricing minima and master
    # columns; cost vector and combination rows for solve_direct). It leaves
    # out the temporaries of cost_vector, so it undercounts the true peak.
    peak_memory_bytes: int
    trace: list[TraceEntry] = field(default_factory=list)
    n_combinations: int = 0
    raw_support_size: int | None = None


def _zero_timings() -> dict[str, float]:
    t = {label: 0.0 for label in STEP_LABELS}
    t["init"] = 0.0
    t["total"] = 0.0
    return t


def _single_measure_result(inst: Instance) -> SolveResult:
    m = inst.measures[0]
    points = [
        BarycenterPoint(m.points[j].copy(), float(m.masses[j]), (j,))
        for j in range(m.size)
    ]
    return SolveResult(
        barycenter=points,
        objective=0.0,
        iterations=0,
        converged=True,
        timings=_zero_timings(),
        peak_memory_bytes=0,
        n_combinations=m.size,
    )


def _two_measure_result(inst: Instance, cfg: SolveConfig) -> SolveResult:
    strides = make_strides(inst.sizes)
    if 8 * strides.total > cfg.memory_cap:
        raise CapacityError(
            f"{strides.total} combinations exceed the memory cap {cfg.memory_cap}"
        )
    t0 = time.perf_counter()
    ledger = AllocationLedger()
    costs = cost_vector(inst, strides)
    ledger.register("pair.costs", costs.nbytes)
    grid = costs.reshape(inst.sizes)
    plan = solve_transportation(
        TransportationProblem(
            inst.measures[0].masses, inst.measures[1].masses, grid
        )
    )
    points = []
    objective = 0.0
    for i, j, q in plan.flows:
        combo = Combination((i, j), i * inst.sizes[1] + j)
        objective += q * combination_cost(combo, inst)
        points.append(BarycenterPoint(weighted_mean(combo, inst), q, (i, j)))
    timings = _zero_timings()
    timings["solve-pricing"] = time.perf_counter() - t0
    timings["total"] = timings["solve-pricing"]
    return SolveResult(
        barycenter=points,
        objective=objective,
        iterations=0,
        converged=True,
        timings=timings,
        peak_memory_bytes=ledger.peak,
        n_combinations=strides.total,
    )


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveResult:
    """Exact barycenter by column generation under the given configuration."""
    cfg = cfg or SolveConfig()
    if inst.n == 1:
        return _single_measure_result(inst)
    if inst.n == 2:
        return _two_measure_result(inst, cfg)

    wall_start = time.perf_counter()
    timings = _zero_timings()
    ledger = AllocationLedger()

    partition = pricing_mod.choose_partition(inst, cfg.pair_variant)
    inst_p = inst.permuted(partition.perm)
    strides_p = make_strides(inst_p.sizes)

    t0 = time.perf_counter()
    state = pricing_mod.init_reduced_costs(
        inst_p, partition, strides_p, memory_cap=cfg.memory_cap, ledger=ledger
    )
    if cfg.start == "greedy":
        p1 = greedy_vertex(inst_p, strides_p)
    else:
        p1 = repair_to_vertex(two_approx(inst_p), inst_p, strides_p)
    timings["init"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rm = master_mod.init_rm(p1, inst_p, strides_p, state.costs)
    ledger.register("master.columns", rm._A.nbytes)
    timings["setup-RM"] += time.perf_counter() - t0

    supplies = inst_p.measures[0].masses
    demands = inst_p.measures[1].masses
    master_rows = rm.rhs.shape[0] - 1
    y_prev = np.zeros(master_rows)
    trace: list[TraceEntry] = []
    converged = False
    iteration = 0

    while True:
        t0 = time.perf_counter()
        _, y, sigma_dual, rm_obj = master_mod.solve_rm(rm)
        timings["solve-RM"] += time.perf_counter() - t0
        state.sigma = -sigma_dual

        t0 = time.perf_counter()
        if iteration > 0 and iteration % RECOMPUTE_PERIOD == 0:
            pricing_mod.recompute_reduced_costs(state, y, partition, strides_p)
        else:
            pricing_mod.update_reduced_costs(state, y_prev, y, partition, strides_p)
        y_prev = y.copy()
        timings["update-reduced-costs"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        pricing_mod.best_costs(state, partition)
        timings["calc-best-costs"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        price_obj, plan = pricing_mod.solve_pricing(state, partition, supplies, demands)
        timings["solve-pricing"] += time.perf_counter() - t0

        iteration += 1
        trace.append(TraceEntry(iteration, rm_obj, price_obj))
        if price_obj >= -cfg.tol:
            converged = True
            break
        if iteration >= cfg.max_iter:
            break

        t0 = time.perf_counter()
        p = pricing_mod.expand_column(plan, state, len(demands))
        master_mod.add_column(rm, p, strides_p, state.costs)
        ledger.register("master.columns", rm._A.nbytes)
        timings["setup-RM"] += time.perf_counter() - t0

    raw, polished = master_mod.recover_solution(
        rm, inst_p, partition, strides_p, state.costs
    )
    timings["total"] = time.perf_counter() - wall_start
    return SolveResult(
        barycenter=polished.points,
        objective=polished.objective,
        iterations=iteration,
        converged=converged,
        timings=timings,
        peak_memory_bytes=ledger.peak,
        trace=trace,
        n_combinations=strides_p.total,
        raw_support_size=len(raw.points),
    )


def solve_direct(
    inst: Instance,
    max_combinations: int = 200_000,
    ledger: AllocationLedger | None = None,
) -> SolveResult:
    """Reference solve of the full LP with explicitly materialized columns.

    Refuses instances whose combination count exceeds the cap: the explicit
    row-index structure alone needs one 64-bit entry per measure per
    combination, which is exactly what column generation avoids.
    """
    if inst.n == 1:
        return _single_measure_result(inst)
    wall_start = time.perf_counter()
    strides = make_strides(inst.sizes)
    total = strides.total
    if total > max_combinations:
        raise CapacityError(
            f"direct solve needs {total} columns, over the cap of {max_combinations}"
        )
    ledger = ledger if ledger is not None else AllocationLedger()
    n = inst.n
    costs = cost_vector(inst, strides)
    ledger.register("direct.costs", costs.nbytes)
    rows = np.empty((n, total), dtype=np.int64)
    h = np.arange(total, dtype=np.int64)
    for i in range(n):
        np.floor_divide(h, strides.suffix_products[i], out=rows[i])
        rows[i] %= strides.sizes[i]
        rows[i] += strides.row_offsets[i]
    ledger.register("direct.rows", rows.nbytes)

    provider = simplex.UnitColumns(rows, nrows=strides.row_offsets[-1])
    rhs = np.concatenate([m.masses for m in inst.measures])
    sol = simplex.solve_columns(provider, costs, rhs)
    if sol.status != simplex.OPTIMAL:
        raise RuntimeError(f"direct solve returned status {sol.status}")

    points = []
    objective = 0.0
    for h_idx in np.flatnonzero(sol.x > 1e-12):
        combo = tuple_of(int(h_idx), strides)
        q = float(sol.x[h_idx])
        objective += q * combination_cost(combo, inst)
        points.append(BarycenterPoint(weighted_mean(combo, inst), q, combo.indices))
    timings = _zero_timings()
    timings["total"] = time.perf_counter() - wall_start
    return SolveResult(
        barycenter=points,
        objective=objective,
        iterations=0,
        converged=True,
        timings=timings,
        peak_memory_bytes=ledger.peak,
        n_combinations=total,
    )
