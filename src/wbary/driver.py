"""Column generation driver and the direct full-LP reference solver.

The loop alternates master re-solves with transportation pricing. It prices
at smoothed duals pi = alpha * pi_hat + (1 - alpha) * y (Wentges 1997),
where y are the master duals and pi_hat the duals with the best Lagrangian
bound L(pi) = pi . b + min over columns of (c - pi . A) so far. alpha
adapts to the subgradient b - A_p of each priced column p (Pessoa, Sadykov,
Uchoa & Vanderbeck 2018); a column that would not enter the master at y is
a misprice, and pricing repeats once at y. Both starts seed pi_hat (Wentges'
dual seeding): before the first master solve the loop prices once at the
seed, which sets the first bound and pi_hat, and adds that column to the
master. The greedy start seeds at zero duals, where L(0) is the cheapest
vertex's cost and so at least 0, every cost being nonnegative; the
2-approximation start seeds at its relocation LP's duals of the master rows.
L(pi) is a valid bound at any pi and does not change when one measure's
duals all shift by a constant, so those duals need no normalisation. Each
pricing but the first starts its transport simplex from the basis, held by
the pricing state, that the one before it ended at: only the costs change,
so that basis stays feasible. The loop stops when the master objective is
within tol of the best bound, a certified gap, and the result reports that
bound. A basic optimum follows, the full LP re-solved cold over the
supports of the columns the master weights when the gap closed to rounding,
else over every generated support. One or two input measures
never enter the loop: a single measure is its own barycenter, and for two
measures the whole problem is one balanced transportation problem. Every
path turns its optimal plan into a SolveResult through the same helper.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import master as master_mod
from . import model
from . import pricing as pricing_mod
from . import simplex
from .master import BarycenterPoint
from .model import CapacityError, Instance, Plan, cost_vector
from .initial import greedy_vertex, relocation_bytes, repair_to_vertex, two_approx
from .transport import northwest_corner, solve_transportation

STEP_LABELS = (
    "setup-RM",
    "solve-RM",
    "update-reduced-costs",
    "calc-best-costs",
    "solve-pricing",
)

# Starting weight of the best-bound duals in the smoothed pricing duals.
ALPHA_START = 0.5

# Bytes allowed for the pricing state, one tile of its pass and the dense
# simplex matrices (the cost build and the transport simplex's matrices for
# two measures), checked before any of them is allocated.
MEMORY_CAP = 2_000_000_000

# Largest combination count solve_direct materializes.
DIRECT_MAX_COMBINATIONS = 200_000


class TraceEntry(NamedTuple):
    iteration: int
    rm_objective: float
    pricing_objective: float  # lb - rm_objective, at most zero up to rounding
    lb: float  # best Lagrangian lower bound so far


START_VARIANTS = ("greedy", "2app")


@dataclass(frozen=True)
class SolveConfig:
    start: str = "greedy"  # or another of START_VARIANTS
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
        if self.start not in START_VARIANTS:
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
    # temporaries that MEMORY_CAP also counts, such as the pricing pass's
    # tile of at most model.BLOCK entries and the basis matrix rebuilt at
    # each inversion, so it undercounts the true peak.
    peak_memory_bytes: int
    # A certified lower bound on the optimum: the best Lagrangian bound of
    # column generation, else the objective itself, an exact LP optimum.
    lower_bound: float
    trace: list[TraceEntry] = field(default_factory=list)
    n_combinations: int = 0
    pricing_calls: int = 0  # transportation pricings; iterations counts master solves


def _zero_timings() -> dict[str, float]:
    t = {label: 0.0 for label in STEP_LABELS}
    t["init"] = 0.0
    t["total"] = 0.0
    return t


def _result(
    w: Plan, inst_perm: Instance, perm: tuple[int, ...],
    wall_start: float, timings: dict[str, float], peak_memory_bytes: int,
    iterations: int = 0, converged: bool = True, trace: Sequence[TraceEntry] = (),
    pricing_calls: int = 0, lower_bound: float | None = None,
) -> SolveResult:
    """The result of a plan over the combinations of ``inst_perm``; without
    a lower bound the plan is an exact LP optimum and bounds itself."""
    points, objective = master_mod.barycenter_points(w, inst_perm, perm)
    timings["total"] = time.perf_counter() - wall_start
    return SolveResult(
        barycenter=points,
        objective=objective,
        iterations=iterations,
        converged=converged,
        timings=timings,
        peak_memory_bytes=peak_memory_bytes,
        lower_bound=objective if lower_bound is None else lower_bound,
        trace=list(trace),
        n_combinations=inst_perm.strides.total,
        pricing_calls=pricing_calls,
    )


def _single_measure_result(inst: Instance) -> SolveResult:
    wall_start = time.perf_counter()
    w = Plan(np.arange(inst.sizes[0]), inst.measures[0].masses)
    return _result(w, inst, (0,), wall_start, _zero_timings(), 0)


def _two_measure_result(inst: Instance) -> SolveResult:
    N = math.prod(inst.sizes)
    # the transport simplex's costs, reduced-cost buffer and the mask of its
    # lowest-cell rule, 17 bytes per combination, and 8 * (n + 3 dim + 2)
    # bytes for each of up to BLOCK combinations, which bound the cost build
    # too: the costs and a tile of at most BLOCK // (n (dim + 1)) index,
    # digits, points, per-measure costs and mean, 8 * (5 + 3 dim) bytes each
    _check_cap(inst, 17 * N + 8 * (inst.n + 3 * inst.dim + 2) * min(N, model.BLOCK))
    wall_start = time.perf_counter()
    costs = cost_vector(inst, range(inst.strides.total))
    basis = northwest_corner(*(m.masses for m in inst.measures))
    w = solve_transportation(costs.reshape(inst.sizes), basis).flows
    timings = _zero_timings()
    timings["solve-pricing"] = time.perf_counter() - wall_start
    return _result(w, inst, (0, 1), wall_start, timings, costs.nbytes)


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
    if inst.n == 2:  # the transportation kernel, no dense simplex
        return _two_measure_result(inst)
    partition = pricing_mod.choose_partition(inst, cfg.pair_variant)
    inst_p = inst.permuted(partition.perm)
    N = math.prod(inst.sizes)
    held = pricing_mod.state_bytes(inst_p.sizes, inst.dim)
    # one tile of the pricing pass; the polish has one basis row per input
    # point, the master fewer
    need = held + 8 * min(N, model.BLOCK) + simplex.kernel_bytes(sum(inst.sizes))
    if cfg.start == "2app":
        need += relocation_bytes(inst_p.sizes)
    _check_cap(inst, need)

    wall_start = time.perf_counter()
    timings = _zero_timings()

    t0 = time.perf_counter()
    state = pricing_mod.init_reduced_costs(inst_p)
    # center: the duals of the best bound, first the seed, priced before the
    # first master solve; one dual per master row
    if cfg.start == "greedy":
        p1 = greedy_vertex(inst_p)
        center = np.zeros(sum(inst_p.sizes[2:]))
    else:
        apx = two_approx(inst_p)
        p1 = repair_to_vertex(apx, inst_p)
        center = apx.duals[inst_p.sizes[0] + inst_p.sizes[1] :]
    timings["init"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rm = master_mod.init_rm(p1, inst_p)
    timings["setup-RM"] += time.perf_counter() - t0

    b = rm.rhs[:-1]
    pricing_calls = 0

    def price(pi: np.ndarray):
        """Column minimizing the reduced cost at pi, its rows and cost, the
        transport objective and L(pi)."""
        nonlocal pricing_calls
        t0 = time.perf_counter()
        pricing_mod.recompute_reduced_costs(state, pi, partition, inst_p.strides)
        timings["update-reduced-costs"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        pricing_mod.best_costs(state)
        timings["calc-best-costs"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        plan = pricing_mod.solve_pricing(state)
        p = pricing_mod.expand_column(plan, state)
        a_p, cost = master_mod.column_coeffs(p, inst_p)
        timings["solve-pricing"] += time.perf_counter() - t0
        pricing_calls += 1
        return p, a_p, cost, plan.objective, float(pi @ b) + plan.objective

    alpha = ALPHA_START
    p, a_p, cost, _, best_lb = price(center)  # the first bound
    t0 = time.perf_counter()
    master_mod.add_column(rm, p, a_p, cost)
    timings["setup-RM"] += time.perf_counter() - t0
    trace: list[TraceEntry] = []
    converged = False
    iteration = 0

    while True:
        t0 = time.perf_counter()
        _, y, sigma, rm_obj = master_mod.solve_rm(rm)
        timings["solve-RM"] += time.perf_counter() - t0
        iteration += 1

        pi = alpha * center + (1 - alpha) * y
        p, a_p, cost, transport_obj, lb = price(pi)
        if (b - a_p) @ (y - center) > 0:
            alpha = max(0.0, alpha - 0.1)
        else:
            alpha = min(0.99, alpha + 0.1 * (1 - alpha))
        if lb > best_lb:
            best_lb, center = lb, pi
        # A misprice: p, priced at pi, would not enter the master at y.
        misprice = transport_obj + (pi - y) @ a_p - sigma >= -simplex.OPT_TOL
        if misprice and rm_obj - best_lb > cfg.tol:
            p, a_p, cost, _, lb = price(y)
            if lb > best_lb:
                best_lb, center = lb, y

        trace.append(TraceEntry(iteration, rm_obj, best_lb - rm_obj, best_lb))
        if rm_obj - best_lb <= cfg.tol:
            converged = True
            break
        if iteration >= cfg.max_iter:
            break

        t0 = time.perf_counter()
        master_mod.add_column(rm, p, a_p, cost)
        timings["setup-RM"] += time.perf_counter() - t0

    w = master_mod.recover_solution(rm, best_lb)
    return _result(
        w, inst_p, partition.perm, wall_start, timings,
        held + rm.kernel.cols.store.nbytes + rm.kernel.Binv.nbytes, iteration,
        converged, trace, pricing_calls, best_lb,
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
    total = inst.strides.total
    if total > DIRECT_MAX_COMBINATIONS:
        raise CapacityError(
            f"direct solve needs {total} columns, "
            f"over the cap of {DIRECT_MAX_COMBINATIONS}"
        )
    # The full LP holds n int64 row indices per combination beside its cost.
    peak_memory_bytes = (inst.n + 1) * 8 * total
    _check_cap(inst, peak_memory_bytes + simplex.kernel_bytes(sum(inst.sizes)))
    w = master_mod.full_lp(np.arange(total, dtype=np.int64), inst)
    return _result(
        w, inst, tuple(range(inst.n)), wall_start, _zero_timings(), peak_memory_bytes
    )
