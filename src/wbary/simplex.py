"""Dense two-phase primal simplex for equality-form LPs.

Solves  min c^T x  s.t.  A x = b, x >= 0  with warm starting. Columns are
accessed through a small provider protocol so the same pivoting kernel works
for an in-memory dense matrix and for implicitly generated 0/1 columns.

Redundant rows are tolerated: artificial variables that cannot be pivoted out
after phase one stay basic at level zero and are encoded in the basis with
negative codes (code -1-r means the artificial of row r), which keeps warm
starts valid while structural columns are appended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
OPT_TOL = 1e-9  # reduced cost below -OPT_TOL enters
FEAS_TOL = 1e-9  # basic values and artificial mass within FEAS_TOL of zero
BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule


class NumericalError(RuntimeError):
    """The solver lost numerical control (singular basis, stalled pivoting)."""


@dataclass
class DenseLP:
    """Equality-form LP data: min cost @ x, A @ x = rhs, x >= 0."""

    cost: np.ndarray
    A: np.ndarray
    rhs: np.ndarray


@dataclass
class Basis:
    """Basic column codes, one per row; negative codes are artificials."""

    basic: np.ndarray


@dataclass
class LPSolution:
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float
    basis: Basis | None
    status: str
    pivots: int = 0


class DenseColumns:
    """Column provider backed by an explicit dense matrix."""

    def __init__(self, A: np.ndarray):
        self.A = np.ascontiguousarray(A, dtype=float)
        self.nrows, self.ncols = self.A.shape

    def apply_yT(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def column(self, j: int) -> np.ndarray:
        return self.A[:, j].copy()


class UnitColumns:
    """Columns holding a single 1 in each of a fixed number of rows.

    ``rows[i, j]`` is the i-th row index of column j; all coefficients are 1.
    """

    def __init__(self, rows: np.ndarray, nrows: int):
        self.rows = rows
        self.nrows = nrows
        self.ncols = rows.shape[1]

    def apply_yT(self, y: np.ndarray) -> np.ndarray:
        acc = y[self.rows[0]].copy()
        for i in range(1, self.rows.shape[0]):
            acc += y[self.rows[i]]
        return acc

    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.nrows)
        col[self.rows[:, j]] = 1.0
        return col


def _order_key(code: int, ncols: int) -> int:
    # Fixed total variable order for Bland's rule: structural, then artificial.
    return code if code >= 0 else ncols + (-1 - code)


class _Kernel:
    def __init__(self, cols, rhs):
        self.cols = cols
        self.m = cols.nrows
        self.k = cols.ncols
        self.b = np.asarray(rhs, dtype=float).copy()
        self.signs = np.where(self.b < 0.0, -1.0, 1.0)
        self.pivots = 0
        self.basic = None  # (m,) int64 codes
        self.B = None  # (m, m) basis matrix

    def column_of(self, code: int) -> np.ndarray:
        if code >= 0:
            return self.cols.column(code)
        r = -1 - code
        col = np.zeros(self.m)
        col[r] = self.signs[r]
        return col

    def set_basis(self, basic: np.ndarray):
        self.basic = basic.astype(np.int64).copy()
        self.B = np.empty((self.m, self.m))
        for pos, code in enumerate(self.basic):
            self.B[:, pos] = self.column_of(int(code))

    def basic_values(self) -> np.ndarray:
        try:
            xB = np.linalg.solve(self.B, self.b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis matrix") from exc
        return xB

    def _phase_cost(self, cost: np.ndarray, art_cost: float) -> np.ndarray:
        return np.array(
            [cost[c] if c >= 0 else art_cost for c in self.basic], dtype=float
        )

    def run_phase(self, cost: np.ndarray, art_cost: float):
        """Pivot to optimality for the given objective. Returns (xB, y)."""
        bland = False
        degen_streak = 0
        while True:
            xB = self.basic_values()
            if xB.min() < -1e-7:
                raise NumericalError(f"basic solution went negative: {xB.min()}")
            np.clip(xB, 0.0, None, out=xB)
            cB = self._phase_cost(cost, art_cost)
            try:
                y = np.linalg.solve(self.B.T, cB)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("singular basis matrix") from exc
            r = cost - self.cols.apply_yT(y)
            r[self.basic[self.basic >= 0]] = 0.0
            if bland:
                candidates = np.flatnonzero(r < -OPT_TOL)
                if candidates.size == 0:
                    return xB, y
                enter = int(candidates[0])
            else:
                enter = int(np.argmin(r))
                if r[enter] >= -OPT_TOL:
                    return xB, y
            col_in = self.cols.column(enter)
            w = np.linalg.solve(self.B, col_in)

            # Ratio test. Zero-level basic artificials with any nonzero
            # direction component must leave first so they never re-acquire
            # mass once the original equalities hold.
            ratios = np.full(self.m, np.inf)
            grow = w > PIVOT_TOL
            ratios[grow] = xB[grow] / w[grow]
            if art_cost == 0.0:
                art_block = (self.basic < 0) & (np.abs(w) > PIVOT_TOL)
                ratios[art_block & (xB <= FEAS_TOL)] = 0.0
            theta = ratios.min()
            if not np.isfinite(theta):
                return None, None  # unbounded
            tie = np.flatnonzero(ratios <= theta + 1e-10 * (1.0 + abs(theta)))
            if bland:
                leave_pos = min(
                    tie, key=lambda p: _order_key(int(self.basic[p]), self.k)
                )
            else:
                leave_pos = min(
                    tie,
                    key=lambda p: (
                        self.basic[p] >= 0,
                        _order_key(int(self.basic[p]), self.k),
                    ),
                )
            self.basic[leave_pos] = enter
            self.B[:, leave_pos] = col_in
            self.pivots += 1
            if theta <= 1e-12:
                degen_streak += 1
                if degen_streak > BLAND_AFTER:
                    bland = True
            else:
                degen_streak = 0
                bland = False


def solve_columns(
    cols,
    cost: np.ndarray,
    rhs: np.ndarray,
    warm: Basis | None = None,
) -> LPSolution:
    """Two-phase primal simplex over an abstract column provider."""
    cost = np.asarray(cost, dtype=float)
    kern = _Kernel(cols, rhs)
    m, k = kern.m, kern.k

    started = False
    if warm is not None and len(warm.basic) == m:
        wb = np.asarray(warm.basic, dtype=np.int64)
        if np.all((wb < k) & (wb >= -m)):
            try:
                kern.set_basis(wb)
                xB = kern.basic_values()
                if xB.min() >= -FEAS_TOL:
                    started = True
            except NumericalError:
                started = False
    if not started:
        kern.set_basis(np.array([-1 - r for r in range(m)], dtype=np.int64))
        phase1_cost = np.zeros(k)
        xB, _ = kern.run_phase(phase1_cost, art_cost=1.0)
        if xB is None:
            raise NumericalError("phase one reported an unbounded direction")
        art_mass = xB[kern.basic < 0].sum() if np.any(kern.basic < 0) else 0.0
        if art_mass > FEAS_TOL * (1.0 + np.abs(kern.b).sum()):
            return LPSolution(None, None, np.inf, None, INFEASIBLE, kern.pivots)

    xB, y = kern.run_phase(cost, art_cost=0.0)
    if xB is None:
        return LPSolution(None, None, -np.inf, None, UNBOUNDED, kern.pivots)
    x = np.zeros(k)
    struct = kern.basic >= 0
    x[kern.basic[struct]] = xB[struct]
    objective = float(cost @ x)
    return LPSolution(
        x, y, objective, Basis(kern.basic.copy()), OPTIMAL, kern.pivots
    )


def solve(lp: DenseLP, warm: Basis | None = None) -> LPSolution:
    """Solve a dense equality-form LP."""
    return solve_columns(DenseColumns(lp.A), lp.cost, lp.rhs, warm)
