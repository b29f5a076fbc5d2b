"""Dense two-phase primal simplex for equality-form LPs.

Solves  min c^T x  s.t.  A x = b, x >= 0  with b >= 0, and returns an optimum
or raises NumericalError: every LP the solver builds is feasible and bounded,
its right-hand sides masses, zeros or the convexity 1. Columns are accessed
through a three-method provider protocol (``apply_yT(y)`` is y^T A,
``direction(Binv, j)`` is Binv times column j, formed from its nonzeros, and
``columns(js)`` gathers columns densely), so the same pivoting kernel works on
two column stores: DenseColumns, an in-memory dense matrix (the restricted
master), and UnitColumns, 0/1 columns with one 1 per measure, kept as their
row indices (the 2-approximation's relocation LP, the unit route's LP over
single combinations, the polish and the direct LP). Columns can be appended
to either store, and ``generate`` runs column generation over a store that
appends.

A Kernel holds the columns, the basis and its inverse. Phase one runs the
first time a kernel is solved. A kernel that returned an optimum keeps its
basis and inverse, so columns appended to its store after that enter as
nonbasic at zero, the basis stays feasible, and the next solve runs phase
two only. This is how the restricted master, the relocation LP and the
unit route's LP are re-solved.

Redundant rows are tolerated: artificial variables that cannot be pivoted out
after phase one stay basic at level zero and are encoded in the basis with
negative codes (code -1-r means the artificial of row r, the unit column of
r), which keeps the basis valid while structural columns are appended.

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
The rest of the basis bookkeeping is also built once per phase and changed
only at the leaving row: each row's basic code (or a spare index for an
artificial), a mask and count of basic artificials, and one reduced-cost
buffer that each pivot overwrites and zeroes at the basic codes.

B itself is not kept: it is rebuilt from the basic codes and re-inverted
every refactor_interval(m) = max(REFACTOR_EVERY, m) pivots (an inversion
costs O(m^3) and an update O(m^2), so m pivots apart the inversions cost one
update each, amortised); before a decision that the updated values could
get wrong (unbounded, or a basic value below -1e-7); before pivoting on an
element smaller than SMALL_PIVOT times the largest entry of the direction,
which would otherwise leave B near singular; and when an optimal decision
on an updated inverse fails its residual check. That check gathers the basic
columns at positive level: the primal residual B x_B - b must stay within
FEAS_TOL (1 + max|b|) and the dual residual c_B - y B, read off the reduced
costs of the basic columns, within OPT_TOL (1 + max|c_B|). An optimum
therefore returns on an inverse that may carry updates, but never on values
that miss either bound. An unbounded direction confirmed on a fresh inverse,
or artificial mass left after phase one, raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
OPT_TOL = 1e-9  # reduced cost below -OPT_TOL enters
FEAS_TOL = 1e-9  # basic values and artificial mass within FEAS_TOL of zero
BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule
REFACTOR_EVERY = 64  # fewest pivots between fresh inversions of the basis
SMALL_PIVOT = 1e-6  # pivot below this share of max|w| needs a fresh inverse


def refactor_interval(m: int) -> int:
    """Rank-one updates between fresh inversions of an m-row basis.

    An inversion costs O(m^3) and an update O(m^2); spacing inversions m
    pivots apart keeps their amortised cost at one update's.
    """
    return max(REFACTOR_EVERY, m)


class NumericalError(RuntimeError):
    """The solver lost numerical control (singular basis, stalled pivoting)
    or was handed an LP without an optimum."""


@dataclass
class LPSolution:
    x: np.ndarray
    duals: np.ndarray
    objective: float
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

    def direction(self, Binv: np.ndarray, j: int) -> np.ndarray:
        col = self.A[:, j]
        nz = col.nonzero()[0]
        return Binv[:, nz] @ col[nz]

    def columns(self, js: np.ndarray) -> np.ndarray:
        return self.A[:, js]


class UnitColumns:
    """Columns holding a single 1 in each of a fixed number of rows.

    ``rows[i, j]`` is the i-th row index of column j; all coefficients are 1.
    A given int64 row array is used without a copy. Appended columns go to an
    int64 store whose width doubles when it is too narrow; ``rows`` is the
    view of its filled columns.
    """

    def __init__(self, rows: np.ndarray, nrows: int):
        self.store = np.asarray(rows, dtype=np.int64)
        self.nrows = nrows
        self.ncols = self.store.shape[1]
        self.rows = self.store

    def append(self, rows: np.ndarray):
        """Append the columns of rows, one row index per measure each."""
        k = rows.shape[1]
        if self.ncols + k > self.store.shape[1]:
            wider = np.empty(
                (self.store.shape[0], max(self.ncols + k, 2 * self.ncols)),
                dtype=np.int64,
            )
            wider[:, : self.ncols] = self.rows
            self.store = wider
        self.store[:, self.ncols : self.ncols + k] = rows
        self.ncols += k
        self.rows = self.store[:, : self.ncols]

    def apply_yT(self, y: np.ndarray) -> np.ndarray:
        # y[rows[0]] + y[rows[1]] + ... in that order (-0.0 + t is t): numpy
        # reduces an outer axis in order but the innermost one pairwise, and
        # a single column makes the row axis innermost.
        terms = y[self.rows]
        if self.ncols == 1:
            return np.add.accumulate(terms, axis=0)[-1]
        return np.add.reduce(terms, axis=0, initial=-0.0)

    def direction(self, Binv: np.ndarray, j: int) -> np.ndarray:
        return Binv[:, self.rows[:, j]].sum(axis=1)

    def columns(self, js: np.ndarray) -> np.ndarray:
        cols = np.zeros((self.nrows, len(js)))
        cols[self.rows[:, js], np.arange(len(js))] = 1.0
        return cols


def unit_store_bytes(n: int, columns: int) -> int:
    """Bytes charged for this many unit columns of n rows each in a Kernel:
    the n int64 rows up to three times over (while the store doubles, or
    while apply_yT gathers the duals at them) and eight floats per column
    (cost and index twice while they grow, level and the kernel's
    buffers)."""
    return 8 * (3 * n + 8) * columns


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
        if (self.b < 0.0).any():
            raise ValueError(f"negative right-hand side: {self.b.min()}")
        self.pivots = 0
        self.basic = None  # (m,) int64 codes
        self.Binv = None  # (m, m) inverse of the basis matrix, updated per pivot
        self.updates = 0  # pivots applied to Binv since it was last inverted

    def basis_matrix(self) -> np.ndarray:
        """B, read from the columns in one indexed read; the artificial of
        row r is the unit column of r."""
        B = np.zeros((self.m, self.m))
        struct = self.basic >= 0
        B[:, struct] = self.cols.columns(self.basic[struct])
        art = np.flatnonzero(~struct)
        B[-1 - self.basic[art], art] = 1.0
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

    def _residuals_hold(self, xB, y, cB, r_basic, art) -> bool:
        """Whether B x_B = b and c_B = y B hold within FEAS_TOL and OPT_TOL,
        given the reduced costs at each row's slot (overwritten at the rows
        in art, the mask of basic artificials)."""
        rows = -1 - self.basic[art]
        r_basic[art] = cB[art] - y[rows]  # an artificial's column is unit row r
        if np.abs(r_basic).max() > OPT_TOL * (1.0 + np.abs(cB).max()):
            return False
        held = ~art & (xB > 0)
        primal = self.cols.columns(self.basic[held]) @ xB[held] - self.b
        primal[rows] += xB[art]
        return np.abs(primal).max() <= FEAS_TOL * (1.0 + self.b.max())

    def run_phase(self, cost: np.ndarray, art_cost: float):
        """Pivot to optimality for the given objective. Returns (xB, y)."""
        # Per row: the basic column's code, or the spare index ncols for an
        # artificial; r is a view of rbuf without the spare entry. Scalars
        # of the ratio test are Python floats.
        ncols = self.cols.ncols
        slot = np.where(self.basic >= 0, self.basic, ncols)
        art = self.basic < 0
        n_art = int(np.count_nonzero(art))
        rbuf = np.zeros(ncols + 1)
        r = rbuf[:ncols]
        cB = np.append(cost, art_cost)[slot]
        ratios = np.empty(self.m)  # inf at rows where w <= PIVOT_TOL
        interval = refactor_interval(self.m)
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
            np.subtract(cost, self.cols.apply_yT(y), out=r)
            r_basic = rbuf[slot]
            rbuf[slot] = 0.0
            if bland:
                candidates = (r < -OPT_TOL).nonzero()[0]
                enter = int(candidates[0]) if candidates.size else None
            else:
                enter = int(r.argmin())
                if r[enter] >= -OPT_TOL:
                    enter = None
            if enter is None:
                if self.updates and not self._residuals_hold(
                    xB, y, cB, r_basic, art
                ):
                    self._invert()
                    continue
                return xB, y
            w = self.cols.direction(self.Binv, enter)

            # Ratio test. Zero-level basic artificials with any nonzero
            # direction component must leave first so they never re-acquire
            # mass once the original equalities hold.
            ratios.fill(np.inf)
            np.divide(xB, w, out=ratios, where=w > PIVOT_TOL)
            if art_cost == 0.0 and n_art:
                ratios[art & (np.abs(w) > PIVOT_TOL) & (xB <= FEAS_TOL)] = 0.0
            theta = float(ratios.min())
            if not math.isfinite(theta):
                if self._refreshed():
                    continue
                raise NumericalError(
                    f"unbounded direction along column {enter} on a fresh inverse"
                )
            tie = (ratios <= theta + 1e-10 * (1.0 + abs(theta))).nonzero()[0]
            leave_pos = int(tie[0])
            if tie.size > 1:
                # Artificials leave first, by row, then structurals by code.
                # Artificials never enter, so with structurals entering by
                # code this is one fixed order, as Bland's rule asks.
                code = self.basic[tie]
                keys = np.where(code < 0, -1 - code, self.m + code)
                leave_pos = int(tie[keys.argmin()])
            pivot = float(w[leave_pos])
            if (
                abs(pivot) < SMALL_PIVOT * float(np.abs(w).max())
                and self._refreshed()
            ):
                continue
            self.basic[leave_pos] = enter
            slot[leave_pos] = enter
            n_art -= int(art[leave_pos])
            art[leave_pos] = False
            cB[leave_pos] = cost[enter]
            row = self.Binv[leave_pos] / pivot
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
            if self.updates >= interval:
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
    """Optimum of a kernel's LP by two-phase primal simplex; phase one only if
    it has no basis. Raises NumericalError when there is no optimum to return.

    A kernel may be solved again after an optimal return, with columns
    appended and costs given for them; the pivots reported are this call's.
    """
    cost = np.asarray(cost, dtype=float)
    start = kern.pivots
    if kern.basic is None:
        kern.basic = -1 - np.arange(kern.m, dtype=np.int64)
        kern.Binv = np.eye(kern.m)  # the artificial basis is its own inverse
        xB, _ = kern.run_phase(np.zeros(kern.cols.ncols), art_cost=1.0)
        art_mass = xB[kern.basic < 0].sum()
        if art_mass > FEAS_TOL * (1.0 + kern.b.sum()):
            raise NumericalError(f"phase one left artificial mass {art_mass}")

    xB, y = kern.run_phase(cost, art_cost=0.0)
    x = np.zeros(kern.cols.ncols)
    struct = kern.basic >= 0
    x[kern.basic[struct]] = xB[struct]
    return LPSolution(x, y, float(cost @ x), kern.pivots - start)


def generate(kern: Kernel, cost, price) -> tuple[LPSolution, np.ndarray]:
    """Column generation over a kernel whose store can append columns.

    Each pass solves the kernel, from its kept basis after the first, and
    calls price(sol), which returns the rows and costs of the columns to
    append, or None to stop. The loop also stops when a re-solve takes no
    pivot, so a column that prices in only by rounding is not appended
    forever. Returns the last solution and the costs of every column.
    """
    cost = np.asarray(cost, dtype=float)
    sol = solve_columns(kern, cost)
    while (new := price(sol)) is not None:
        rows, more = new
        kern.cols.append(rows)
        cost = np.concatenate((cost, more))
        sol = solve_columns(kern, cost)
        if sol.pivots == 0:
            break
    return sol, cost
