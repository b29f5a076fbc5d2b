"""Column generation driver and the direct full-LP reference solver.

The loop alternates master re-solves with transportation pricing. After the
first master solve it prices at smoothed duals pi = alpha * pi_hat +
(1 - alpha) * y (Wentges 1997), where y are the master duals and pi_hat the
duals with the best Lagrangian bound L(pi) = pi . b + min over columns of
(c - pi . A) so far. alpha adapts to the subgradient b - A_p of each priced
column p (Pessoa, Sadykov, Uchoa & Vanderbeck 2018); a column that would not
enter the master at y is a misprice, and pricing repeats once at y. Each
pricing but the first starts its transport simplex from the basis the one
before it ended at: only the costs change, so that basis stays feasible. The
loop stops when the master objective is within tol of the best bound, a
certified gap, then re-solves the full LP over the generated supports for a
basic optimum. One or two input measures never enter the loop: a single
measure is its own barycenter, and for two measures the whole problem is one
balanced transportation problem. Every path turns its optimal plan into a
SolveResult through the same helper.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import master as master_mod
from . import pricing as pricing_mod
from . import simplex
from .master import BarycenterPoint
from .model import (
    BLOCK,
    CapacityError,
    Instance,
    Plan,
    Strides,
    cost_vector,
    make_strides,
)
from .initial import greedy_vertex, relocation_bytes, repair_to_vertex, two_approx
from .transport import TransportationProblem, solve_transportation

STEP_LABELS = (
    "setup-RM",
    "solve-RM",
    "update-reduced-costs",
    "calc-best-costs",
    "solve-pricing",
)

# Starting weight of the best-bound duals in the smoothed pricing duals.
ALPHA_START = 0.5

# Bytes allowed for the pricing state and the dense simplex matrices (the
# cost build and the transport simplex's matrices for two measures), checked
# before either is allocated.
MEMORY_CAP = 2_000_000_000

# Largest combination count solve_direct materializes.
DIRECT_MAX_COMBINATIONS = 200_000


class TraceEntry(NamedTuple):
    iteration: int
    rm_objective: float
    pricing_objective: float  # lb - rm_objective, at most zero up to rounding
    lb: float  # best Lagrangian lower bound so far


@dataclass
class SolveConfig:
    start: str = "greedy"  # or "2app"
    pair_variant: str = "large"  # or "any", "small"
    tol: float = 1e-6
    max_iter: int = 100_000

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.start not in ("greedy", "2app"):
            raise ValueError(f"unknown start {self.start!r}")
        if self.pair_variant not in pricing_mod.PAIR_VARIANTS:
            raise ValueError(f"unknown pair variant {self.pair_variant!r}")


@dataclass
class SolveResult:
    barycenter: list[BarycenterPoint]
    objective: float
    iterations: int
    converged: bool
    timings: dict[str, float]
    # Not a measurement: the size of the arrays the solve holds when it
    # returns (pricing state with its minima, and the master's column store
    # at its allocated width plus its basis inverse; the cost matrix for two
    # measures; costs and combination rows for solve_direct). It leaves out
    # temporaries, such as the pricing tiles and the basis matrix rebuilt at
    # each inversion, that MEMORY_CAP also counts, so it undercounts the
    # true peak.
    peak_memory_bytes: int
    trace: list[TraceEntry] = field(default_factory=list)
    n_combinations: int = 0
    pricing_calls: int = 0  # transportation pricings; iterations counts master solves


def _zero_timings() -> dict[str, float]:
    t = {label: 0.0 for label in STEP_LABELS}
    t["init"] = 0.0
    t["total"] = 0.0
    return t


def _result(
    w: Plan, inst_perm: Instance, perm: tuple[int, ...], strides_perm: Strides,
    wall_start: float, timings: dict[str, float], peak_memory_bytes: int,
    iterations: int = 0, converged: bool = True, trace: Sequence[TraceEntry] = (),
    pricing_calls: int = 0,
) -> SolveResult:
    """The result of an optimal plan over the combinations of ``inst_perm``."""
    points, objective = master_mod.barycenter_points(w, inst_perm, perm, strides_perm)
    timings["total"] = time.perf_counter() - wall_start
    return SolveResult(
        barycenter=points,
        objective=objective,
        iterations=iterations,
        converged=converged,
        timings=timings,
        peak_memory_bytes=peak_memory_bytes,
        trace=list(trace),
        n_combinations=strides_perm.total,
        pricing_calls=pricing_calls,
    )


def _single_measure_result(inst: Instance) -> SolveResult:
    wall_start = time.perf_counter()
    w = Plan(np.arange(inst.sizes[0]), inst.measures[0].masses)
    return _result(w, inst, (0,), make_strides(inst.sizes), wall_start, _zero_timings(), 0)


def _two_measure_result(inst: Instance) -> SolveResult:
    wall_start = time.perf_counter()
    strides = make_strides(inst.sizes)
    costs = cost_vector(inst, strides, np.arange(strides.total))
    m0, m1 = inst.measures
    plan = solve_transportation(
        TransportationProblem(m0.masses, m1.masses, costs.reshape(inst.sizes))
    )
    i, j, q = np.array(plan.flows).T
    w = Plan((i * inst.sizes[1] + j).astype(np.int64), q)
    timings = _zero_timings()
    timings["solve-pricing"] = time.perf_counter() - wall_start
    return _result(w, inst, (0, 1), strides, wall_start, timings, costs.nbytes)


def _check_cap(inst: Instance, need: int):
    if need > MEMORY_CAP:
        raise CapacityError(
            f"{math.prod(inst.sizes)} combinations need {need} bytes of pricing "
            f"state or LP data and dense simplex matrices, over the cap of "
            f"{MEMORY_CAP}"
        )


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveResult:
    """Exact barycenter by column generation under the given configuration."""
    cfg = cfg or SolveConfig()
    if inst.n == 1:
        return _single_measure_result(inst)
    partition = pricing_mod.choose_partition(inst, cfg.pair_variant)
    sizes_p = tuple(inst.sizes[i] for i in partition.perm)
    if inst.n == 2:  # the transportation kernel, no dense simplex
        # the transport simplex holds the costs, the reduced costs of its
        # last pivot and two temporaries of the next, 32 bytes per
        # combination, more than the index and costs of the cost build; the
        # build adds one tile's digits, means, differences and costs
        N = math.prod(inst.sizes)
        need = 32 * N + 8 * (inst.n + 3 * inst.dim + 2) * min(N, BLOCK)
    else:
        held = pricing_mod.state_bytes(sizes_p, inst.dim)
        # the polish has one basis row per input point, the master fewer
        need = held + simplex.kernel_bytes(sum(inst.sizes))
        if cfg.start == "2app":
            need += relocation_bytes(sizes_p)
    _check_cap(inst, need)
    if inst.n == 2:
        return _two_measure_result(inst)

    wall_start = time.perf_counter()
    timings = _zero_timings()

    inst_p = inst.permuted(partition.perm)
    strides_p = make_strides(sizes_p)

    t0 = time.perf_counter()
    state = pricing_mod.init_reduced_costs(inst_p, partition, strides_p)
    if cfg.start == "greedy":
        p1 = greedy_vertex(inst_p, strides_p)
    else:
        p1 = repair_to_vertex(two_approx(inst_p), inst_p, strides_p)
    timings["init"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rm = master_mod.init_rm(p1, inst_p, strides_p)
    timings["setup-RM"] += time.perf_counter() - t0

    supplies = inst_p.measures[0].masses
    demands = inst_p.measures[1].masses
    b = rm.rhs[:-1]
    pricing_calls = 0

    def price(pi: np.ndarray, basis: dict | None):
        """Column minimizing the reduced cost at pi, with its rows, L(pi) and
        the transport basis it ended at; the transport starts from basis."""
        nonlocal pricing_calls
        t0 = time.perf_counter()
        pricing_mod.recompute_reduced_costs(state, pi, partition, strides_p)
        timings["update-reduced-costs"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        pricing_mod.best_costs(state, partition)
        timings["calc-best-costs"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        transport_obj, plan = pricing_mod.solve_pricing(
            state, partition, supplies, demands, basis
        )
        p = pricing_mod.expand_column(plan, state, len(demands))
        a_p = master_mod.column_coeffs(p, strides_p, b.shape[0])
        timings["solve-pricing"] += time.perf_counter() - t0
        pricing_calls += 1
        return p, a_p, transport_obj, float(pi @ b) + transport_obj, plan.basis

    alpha = ALPHA_START
    best_lb = -math.inf
    center = None  # the duals of best_lb
    basis = None  # the last optimal transport basis: pricing starts from it
    trace: list[TraceEntry] = []
    converged = False
    iteration = 0

    while True:
        t0 = time.perf_counter()
        _, y, sigma, rm_obj = master_mod.solve_rm(rm)
        timings["solve-RM"] += time.perf_counter() - t0
        iteration += 1

        pi = y if center is None else alpha * center + (1 - alpha) * y
        p, a_p, transport_obj, lb, basis = price(pi, basis)
        if center is not None:
            if (b - a_p) @ (y - center) > 0:
                alpha = max(0.0, alpha - 0.1)
            else:
                alpha = min(0.99, alpha + 0.1 * (1 - alpha))
        if lb > best_lb:
            best_lb, center = lb, pi
        # A misprice: p, priced at pi, would not enter the master at y.
        misprice = transport_obj + (pi - y) @ a_p - sigma >= -simplex.OPT_TOL
        if misprice and pi is not y and rm_obj - best_lb > cfg.tol:
            p, a_p, _, lb, basis = price(y, basis)
            if lb > best_lb:
                best_lb, center = lb, y

        trace.append(TraceEntry(iteration, rm_obj, best_lb - rm_obj, best_lb))
        if rm_obj - best_lb <= cfg.tol:
            converged = True
            break
        if iteration >= cfg.max_iter:
            break

        t0 = time.perf_counter()
        master_mod.add_column(rm, p, a_p)
        timings["setup-RM"] += time.perf_counter() - t0

    w = master_mod.recover_solution(rm)
    return _result(
        w, inst_p, partition.perm, strides_p, wall_start, timings,
        held + rm.kernel.cols.store.nbytes + rm.kernel.Binv.nbytes, iteration,
        converged, trace, pricing_calls,
    )


def solve_direct(inst: Instance) -> SolveResult:
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
    if total > DIRECT_MAX_COMBINATIONS:
        raise CapacityError(
            f"direct solve needs {total} columns, "
            f"over the cap of {DIRECT_MAX_COMBINATIONS}"
        )
    # The full LP holds n int64 row indices per combination beside its cost.
    peak_memory_bytes = (inst.n + 1) * 8 * total
    _check_cap(inst, peak_memory_bytes + simplex.kernel_bytes(sum(inst.sizes)))
    status, w = master_mod.full_lp(np.arange(total, dtype=np.int64), inst, strides)
    if status != simplex.OPTIMAL:
        raise RuntimeError(f"direct solve returned status {status}")
    return _result(
        w, inst, tuple(range(inst.n)), strides, wall_start, _zero_timings(),
        peak_memory_bytes,
    )
