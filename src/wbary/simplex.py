"""Dense two-phase primal simplex for equality-form LPs.

Solves  min c^T x  s.t.  A x = b, x >= 0. Columns are accessed through a
small provider protocol (``apply_yT(y)`` is y^T A, ``apply_x(x)`` is A x,
``direction(Binv, j)`` is Binv times column j, formed from its nonzeros,
and ``columns(js)`` gathers columns densely to build B), so the same
pivoting kernel works on three column stores: DenseColumns, an in-memory
dense matrix that columns can be appended to (the restricted master);
UnitColumns, implicitly generated 0/1 columns with one 1 per measure (the
polish and the direct LP); and SparseColumns, a compressed sparse column
matrix (the 2-approximation's relocation LP, whose columns have 2 or n
nonzeros).

A Kernel holds the columns, the basis and its inverse. Phase one runs the
first time a kernel is solved. A kernel that returned an optimum keeps its
basis and inverse, so columns appended to a DenseColumns store after that
enter as nonbasic at zero, the basis stays feasible, and the next solve runs
phase two only. This is how the restricted master is re-solved.

Redundant rows are tolerated: artificial variables that cannot be pivoted out
after phase one stay basic at level zero and are encoded in the basis with
negative codes (code -1-r means the artificial of row r), which keeps the
basis valid while structural columns are appended.

The kernel keeps the inverse of the basis matrix B. The basic values x_B and
the duals y are read off it in O(m^2) only at the start of a phase and right
after an inversion; between inversions each pivot updates them in O(m)
(x_B -= theta w, y += d_q times the new pivot row of the inverse, with d_q
the entering reduced cost), and the basic costs c_B change in the one
position that pivots. The entering direction w = B^-1 a_q is formed from the
nonzeros of column q. The inverse itself takes a rank-one product-form step
(Dantzig & Orchard-Hays): the leaving row is divided by the pivot element and
eliminated from every other row. Only rows where w is nonzero change; when
fewer than half of them are nonzero (sparse columns give sparse directions)
just those rows are updated, otherwise the whole matrix is, which is faster
for a dense w. Both forms do the same arithmetic on every row that changes.

B itself is not kept: it is rebuilt from the basic codes and re-inverted
every REFACTOR_EVERY pivots; before a decision that the updated values
could get wrong (unbounded, or a basic value below -1e-7); before pivoting on
an element smaller than SMALL_PIVOT times the largest entry of the
direction, which would otherwise leave B near singular; and when an optimal
decision on an updated inverse fails its residual check. That check costs
one column product: the primal residual B x_B - b must stay within
FEAS_TOL (1 + max|b|) and the dual residual c_B - y B, read off the reduced
costs of the basic columns, within OPT_TOL (1 + max|c_B|). An optimum
therefore returns on an inverse that may carry updates, but never on values
that miss either bound.
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
REFACTOR_EVERY = 64  # pivots between fresh inversions of the basis
SMALL_PIVOT = 1e-6  # pivot below this share of max|w| needs a fresh inverse


class NumericalError(RuntimeError):
    """The solver lost numerical control (singular basis, stalled pivoting)."""


@dataclass
class LPSolution:
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float
    status: str
    pivots: int = 0


class DenseColumns:
    """Column provider backed by an explicit dense matrix.

    A contiguous float matrix is used without a copy. Appended columns go to a
    C-order store whose width doubles when it is full; ``A`` is the view of
    its filled columns.
    """

    def __init__(self, A: np.ndarray):
        self.store = np.ascontiguousarray(A, dtype=float)
        self.nrows, self.ncols = self.store.shape
        self.A = self.store

    def append(self, col: np.ndarray):
        if self.ncols == self.store.shape[1]:
            wider = np.empty((self.nrows, max(1, 2 * self.ncols)))
            wider[:, : self.ncols] = self.store
            self.store = wider
        self.store[:, self.ncols] = col
        self.ncols += 1
        self.A = self.store[:, : self.ncols]

    def apply_yT(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def apply_x(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x

    def direction(self, Binv: np.ndarray, j: int) -> np.ndarray:
        col = self.A[:, j]
        nz = col.nonzero()[0]
        return Binv[:, nz] @ col[nz]

    def columns(self, js: np.ndarray) -> np.ndarray:
        return self.A[:, js]


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

    def apply_x(self, x: np.ndarray) -> np.ndarray:
        nz = np.flatnonzero(x)
        return np.bincount(
            self.rows[:, nz].ravel(),
            weights=np.tile(x[nz], self.rows.shape[0]),
            minlength=self.nrows,
        )

    def direction(self, Binv: np.ndarray, j: int) -> np.ndarray:
        return Binv[:, self.rows[:, j]].sum(axis=1)

    def columns(self, js: np.ndarray) -> np.ndarray:
        cols = np.zeros((self.nrows, len(js)))
        cols[self.rows[:, js], np.arange(len(js))] = 1.0
        return cols


class SparseColumns:
    """Columns in compressed sparse column form.

    Column j holds ``vals[indptr[j]:indptr[j + 1]]`` in the rows
    ``rows[indptr[j]:indptr[j + 1]]``; no row appears twice in one column.
    """

    def __init__(
        self, indptr: np.ndarray, rows: np.ndarray, vals: np.ndarray, nrows: int
    ):
        self.indptr = indptr
        self.rows = rows
        self.vals = vals
        self.nrows = nrows
        self.ncols = len(indptr) - 1
        self.col_of = np.repeat(np.arange(self.ncols), np.diff(indptr))

    def apply_yT(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.col_of, weights=y[self.rows] * self.vals, minlength=self.ncols
        )

    def apply_x(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.rows, weights=self.vals * x[self.col_of], minlength=self.nrows
        )

    def direction(self, Binv: np.ndarray, j: int) -> np.ndarray:
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return Binv[:, self.rows[lo:hi]] @ self.vals[lo:hi]

    def columns(self, js: np.ndarray) -> np.ndarray:
        lo = self.indptr[js]
        counts = self.indptr[js + 1] - lo
        # entry k of the gathered columns sits at lo[c] + (k - first[c])
        first = np.cumsum(counts) - counts
        at = np.arange(counts.sum()) + np.repeat(lo - first, counts)
        cols = np.zeros((self.nrows, len(js)))
        cols[self.rows[at], np.repeat(np.arange(len(js)), counts)] = self.vals[at]
        return cols


def kernel_bytes(rows: int) -> int:
    """Bytes of a Kernel's dense matrices over this many rows: B, its inverse
    and one rank-one temporary."""
    return 24 * rows * rows


class Kernel:
    """The columns and right-hand side of an LP, with its basis once solved."""

    def __init__(self, cols, rhs):
        self.cols = cols
        self.m = cols.nrows
        self.b = np.asarray(rhs, dtype=float).copy()
        self.signs = np.where(self.b < 0.0, -1.0, 1.0)
        self.pivots = 0
        self.basic = None  # (m,) int64 codes
        self.Binv = None  # (m, m) inverse of the basis matrix, updated per pivot
        self.updates = 0  # pivots applied to Binv since it was last inverted

    def basis_matrix(self) -> np.ndarray:
        """B, read from the columns in one indexed read; the artificial of
        row r is the unit column of r with the sign of its right-hand side."""
        B = np.zeros((self.m, self.m))
        struct = self.basic >= 0
        B[:, struct] = self.cols.columns(self.basic[struct])
        art = np.flatnonzero(~struct)
        rows = -1 - self.basic[art]
        B[rows, art] = self.signs[rows]
        return B

    def _invert(self):
        self.Binv = None  # free the old inverse before B and its inverse exist
        try:
            self.Binv = np.linalg.inv(self.basis_matrix())
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis matrix") from exc
        self.updates = 0

    def _refreshed(self) -> bool:
        """Re-invert B if Binv carries updates; report whether it did."""
        if self.updates == 0:
            return False
        self._invert()
        return True

    def _structural_x(self, xB: np.ndarray) -> np.ndarray:
        x = np.zeros(self.cols.ncols)
        struct = self.basic >= 0
        x[self.basic[struct]] = xB[struct]
        return x

    def _residuals_hold(self, xB, y, cB, r_struct) -> bool:
        """Whether B x_B = b and c_B = y B hold within FEAS_TOL and OPT_TOL,
        given the reduced costs of the basic structural columns."""
        art = np.flatnonzero(self.basic < 0)
        rows = -1 - self.basic[art]
        dual = np.append(r_struct, cB[art] - y[rows] * self.signs[rows])
        if np.abs(dual).max() > OPT_TOL * (1.0 + np.abs(cB).max()):
            return False
        primal = self.cols.apply_x(self._structural_x(xB)) - self.b
        primal[rows] += self.signs[rows] * xB[art]
        return np.abs(primal).max() <= FEAS_TOL * (1.0 + np.abs(self.b).max())

    def _leave_keys(self, code: np.ndarray, bland: bool) -> np.ndarray:
        # Bland's rule orders variables structural first, then artificial;
        # otherwise artificials leave first, by row, then structurals.
        if bland:
            return np.where(code >= 0, code, self.cols.ncols - 1 - code)
        return np.where(code < 0, -1 - code, self.m + code)

    def run_phase(self, cost: np.ndarray, art_cost: float):
        """Pivot to optimality for the given objective. Returns (xB, y)."""
        cB = np.full(self.m, art_cost)
        struct = self.basic >= 0
        cB[struct] = cost[self.basic[struct]]
        no_limit = np.full(self.m, np.inf)  # ratio of a row where w <= PIVOT_TOL
        xB = None
        bland = False
        degen_streak = 0
        while True:
            if xB is None or self.updates == 0:  # phase start or a new inverse
                xB = self.Binv @ self.b
                y = cB @ self.Binv
            if xB.min() < -1e-7:
                if self._refreshed():
                    continue
                raise NumericalError(f"basic solution went negative: {xB.min()}")
            np.maximum(xB, 0.0, out=xB)
            r = cost - self.cols.apply_yT(y)
            art = self.basic < 0
            codes = self.basic[~art]
            r_struct = r[codes]
            r[codes] = 0.0
            if bland:
                candidates = (r < -OPT_TOL).nonzero()[0]
                enter = int(candidates[0]) if candidates.size else None
            else:
                enter = int(r.argmin())
                if r[enter] >= -OPT_TOL:
                    enter = None
            if enter is None:
                if self.updates and not self._residuals_hold(xB, y, cB, r_struct):
                    self._invert()
                    continue
                return xB, y
            w = self.cols.direction(self.Binv, enter)

            # Ratio test. Zero-level basic artificials with any nonzero
            # direction component must leave first so they never re-acquire
            # mass once the original equalities hold.
            ratios = np.divide(xB, w, out=no_limit.copy(), where=w > PIVOT_TOL)
            if art_cost == 0.0 and art.any():
                ratios[art & (np.abs(w) > PIVOT_TOL) & (xB <= FEAS_TOL)] = 0.0
            theta = ratios.min()
            if not np.isfinite(theta):
                if self._refreshed():
                    continue
                return None, None  # unbounded
            tie = (ratios <= theta + 1e-10 * (1.0 + abs(theta))).nonzero()[0]
            leave_pos = int(tie[0])
            if tie.size > 1:
                keys = self._leave_keys(self.basic[tie], bland)
                leave_pos = int(tie[keys.argmin()])
            if (
                abs(w[leave_pos]) < SMALL_PIVOT * np.abs(w).max()
                and self._refreshed()
            ):
                continue
            self.basic[leave_pos] = enter
            cB[leave_pos] = cost[enter]
            row = self.Binv[leave_pos] / w[leave_pos]
            touched = w.nonzero()[0]
            if 2 * touched.size < self.m:
                self.Binv[touched] -= np.multiply.outer(w[touched], row)
            else:
                self.Binv -= np.multiply.outer(w, row)
            self.Binv[leave_pos] = row
            xB -= theta * w
            xB[leave_pos] = theta
            y += r[enter] * row
            self.updates += 1
            if self.updates >= REFACTOR_EVERY:
                self._invert()
            self.pivots += 1
            if theta <= 1e-12:
                degen_streak += 1
                if degen_streak > BLAND_AFTER:
                    bland = True
            else:
                degen_streak = 0
                bland = False


def solve_columns(kern: Kernel, cost) -> LPSolution:
    """Two-phase primal simplex on a kernel; phase one only if it has no basis.

    A kernel may be solved again after an optimal return, with columns
    appended and costs given for them; the pivots reported are this call's.
    """
    cost = np.asarray(cost, dtype=float)
    start = kern.pivots
    if kern.basic is None:
        kern.basic = -1 - np.arange(kern.m, dtype=np.int64)
        kern.Binv = np.diag(kern.signs)  # the artificial basis is its own inverse
        xB, _ = kern.run_phase(np.zeros(kern.cols.ncols), art_cost=1.0)
        if xB is None:
            raise NumericalError("phase one reported an unbounded direction")
        art_mass = xB[kern.basic < 0].sum() if np.any(kern.basic < 0) else 0.0
        if art_mass > FEAS_TOL * (1.0 + np.abs(kern.b).sum()):
            return LPSolution(None, None, np.inf, INFEASIBLE, kern.pivots - start)

    xB, y = kern.run_phase(cost, art_cost=0.0)
    if xB is None:
        return LPSolution(None, None, -np.inf, UNBOUNDED, kern.pivots - start)
    x = kern._structural_x(xB)
    return LPSolution(x, y, float(cost @ x), OPTIMAL, kern.pivots - start)
