"""Instance data model and combination-index arithmetic.

A problem instance is a list of discrete probability measures with weights.
A candidate barycenter support point corresponds to one *combination*: one
support point picked from every measure. Combinations are addressed by a
single flat index built from suffix products of the measure sizes, so the
exponentially large constraint matrix never has to be stored; any column of
it can be regenerated from the index alone.

``digits`` is the one decode from flat indices to point indices, and
``mean_costs`` the one cost formula: the full LP (through ``cost_vector``),
the master columns and the reported objective cost combinations with it.
Only pricing scores them another way, by the reduced costs of its split
state (pricing.py). The formula takes two passes, the weighted mean and then
the weighted squared distances to it; each gathers the points of all n
measures at once from the stacked point array and sums over the measure
axis in measure order, so it rounds exactly as a loop over the measures
does. ``cost_vector`` runs it over tiles that share one set of buffers.
``Plan`` is the one plan format: start vertices, master columns, optimal
plans and transport flows (over flat cells i * k + j) are index and mass
arrays, read directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

MASS_TOL = 1e-12
# Largest squared norm of a point: |x - y|^2 <= 4 max(|x|^2, |y|^2) keeps
# every squared distance, cost and pricing sum of squared norms finite.
SQNORM_LIMIT = float(np.finfo(float).max) / 4
INDEX_LIMIT = 2**63  # flat indices are kept in signed 64-bit arrays
# Entries per tile of the pricing pass and of cost_vector. The tile that
# matmul writes must still be in L2 when argmin reads it back: 1 << 17
# float64 entries are 1 MB, half of a 2 MB L2, while 1 << 20 (8 MB) spills
# each tile before the read. Smaller tiles lose to per-tile overhead.
BLOCK = 1 << 17


class CapacityError(RuntimeError):
    """An instance exceeds a configured size or memory limit."""


class ContractError(ValueError):
    """Input data violates a documented precondition."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure in R^d."""

    points: np.ndarray  # (size, dim) float64
    masses: np.ndarray  # (size,) float64, positive, summing to 1

    def __post_init__(self):
        points = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        masses = np.ascontiguousarray(np.asarray(self.masses, dtype=float))
        if points.ndim != 2 or points.shape[0] < 1:
            raise ContractError("points must be a nonempty (size, dim) array")
        if points.shape[1] < 1:
            raise ContractError("points need at least one coordinate")
        if masses.ndim != 1 or masses.shape[0] != points.shape[0]:
            raise ContractError("masses must match the number of points")
        if not np.isfinite(points).all():
            raise ContractError("points must be finite")
        if not np.isfinite(masses).all():
            raise ContractError("masses must be finite")
        if np.any(masses <= 0.0):
            raise ContractError("all masses must be positive")
        if abs(masses.sum() - 1.0) > MASS_TOL:
            raise ContractError(
                f"masses sum to {masses.sum()!r}, expected 1 within {MASS_TOL}"
            )
        points.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)
        if not self.sqnorms.max() <= SQNORM_LIMIT:  # inf too
            raise ContractError(f"points must have squared norms of at most {SQNORM_LIMIT:.4g}")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def sqnorms(self) -> np.ndarray:
        """Squared norm of every point, computed once per measure."""
        return np.einsum("ij,ij->i", self.points, self.points)


@dataclass(frozen=True)
class Instance:
    """A weighted family of discrete measures sharing one ambient dimension."""

    measures: tuple[DiscreteMeasure, ...]
    lambdas: np.ndarray  # (n,) nonnegative, summing to 1

    def __post_init__(self):
        measures = tuple(self.measures)
        lambdas = np.ascontiguousarray(np.asarray(self.lambdas, dtype=float))
        if len(measures) < 1:
            raise ContractError("an instance needs at least one measure")
        if lambdas.shape != (len(measures),):
            raise ContractError("one weight per measure required")
        if not np.isfinite(lambdas).all():
            raise ContractError("weights must be finite")
        if np.any(lambdas < 0.0):
            raise ContractError("weights must be nonnegative")
        if abs(lambdas.sum() - 1.0) > MASS_TOL:
            raise ContractError(
                f"weights sum to {lambdas.sum()!r}, expected 1 within {MASS_TOL}"
            )
        dims = {m.dim for m in measures}
        if len(dims) != 1:
            raise ContractError(f"measures have mixed dimensions {sorted(dims)}")
        lambdas.setflags(write=False)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def n(self) -> int:
        return len(self.measures)

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    @cached_property  # built per read, it held memory until the next gc pass
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.size for m in self.measures)

    def permuted(self, order: tuple[int, ...]) -> "Instance":
        """Reorder the measures (weights follow)."""
        return Instance(
            tuple(self.measures[i] for i in order),
            np.asarray([self.lambdas[i] for i in order]),
        )


@dataclass(frozen=True)
class Strides:
    """Index arithmetic for the flat combination space of an instance.

    ``suffix_products[i]`` is the product of all measure sizes after i; it is
    both the mixed-radix place value of measure i's digit and the length of
    each run of consecutive ones in that measure's rows of the constraint
    matrix.
    """

    sizes: tuple[int, ...]
    suffix_products: tuple[int, ...]
    total: int
    row_offsets: tuple[int, ...]  # prefix sums of sizes, length n+1


def make_strides(sizes) -> Strides:
    """Build mixed-radix strides, rejecting products beyond 64-bit indexing."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise ContractError("sizes must be positive integers")
    suffix = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        suffix[i] = suffix[i + 1] * sizes[i + 1]
    total = suffix[0] * sizes[0]
    if total >= INDEX_LIMIT:
        raise CapacityError(
            f"combination count {total} exceeds the 64-bit index limit {INDEX_LIMIT}"
        )
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    return Strides(sizes, tuple(suffix), total, tuple(offsets))


def digits(index: np.ndarray | range, strides: Strides) -> np.ndarray:
    """Decode flat combination indices: row i holds measure i's point indices.

    index is an int64 array or a range of flat indices. Returns an (n, k)
    int64 array for k indices, the inverse of
    np.ravel_multi_index(..., strides.sizes).
    """
    if isinstance(index, range):
        index = np.arange(index.start, index.stop, index.step, dtype=np.int64)
    index = np.asarray(index, dtype=np.int64)
    out = index // np.asarray(strides.suffix_products, dtype=np.int64)[:, None]
    out %= np.asarray(strides.sizes, dtype=np.int64)[:, None]
    return out


def cost_vector(
    inst: Instance, strides: Strides, index: np.ndarray | range
) -> np.ndarray:
    """Per-unit transport cost of the combinations in an int64 index array or
    a range, by ``mean_costs``' formula over tiles of about
    BLOCK // (n (dim + 1)) combinations, whose gathered points and
    per-measure costs then take about BLOCK entries, as a pricing tile does.
    The tiles share one work buffer and write their costs straight into the
    result. A tile of a range is a range, expanded only while it is
    decoded, so a build holds no index array."""
    tile = max(1, BLOCK // (inst.n * (inst.dim + 1)))
    cost = np.empty(len(index))
    work = np.empty(min(tile, len(index)) * (inst.n * (inst.dim + 1) + inst.dim))
    offsets = np.asarray(strides.row_offsets[:-1])[:, None]
    for s in range(0, len(index), tile):
        rows = digits(index[s : s + tile], strides)
        rows += offsets
        _row_costs(inst, rows, work, cost[s : s + rows.shape[1]])
    return cost


def mean_costs(inst: Instance, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean points (k, dim) and costs (k,) of decoded combinations.

    Two passes over the points: the weighted mean, then
    sum_i l_i |x_i - mean|^2. The expanded form sum_i l_i |x_i|^2 - |mean|^2
    is one pass, but it subtracts two numbers of the size of |x|^2, which
    cancel to a cost of the size of the spread: at offsets of 1e7 that
    loses every digit of it.
    """
    (n, k), dim = d.shape, inst.dim
    # stacked point rows; np.cumsum of a tuple would hold memory until the
    # next gc pass at each of the master's per-pricing calls
    rows = d + np.add.accumulate((0,) + inst.sizes[:-1])[:, None]
    cost = np.empty(k)
    mean = _row_costs(inst, rows, np.empty(k * (n * (dim + 1) + dim)), cost)
    return mean.copy(), cost


def _row_costs(inst: Instance, rows: np.ndarray, work: np.ndarray, cost: np.ndarray):
    """Write mean_costs' costs of the combinations given as rows of the
    stacked point array to cost, and return their means, a view of work,
    which holds at least n (dim + 1) + dim floats per combination.

    Each pass gathers all n measures' points at once and sums over the
    measure axis in measure order from zero, as a loop of ``acc += term``
    over the measures does. numpy sums an outer axis in that order but the
    innermost one pairwise, and a single combination makes the measure axis
    innermost, so it is costed beside a copy of itself."""
    (n, k), dim = rows.shape, inst.dim
    if k == 1:
        pair, two = np.repeat(rows, 2, axis=1), np.empty(2)
        mean = _row_costs(inst, pair, np.empty(2 * (n * (dim + 1) + dim)), two)
        cost[:] = two[:1]
        return mean[:1]
    x = work[: n * k * dim].reshape(n, k, dim)
    q = work[n * k * dim : n * k * (dim + 1)].reshape(n, k)
    mean = work[n * k * (dim + 1) : k * (n * (dim + 1) + dim)].reshape(k, dim)
    points = np.concatenate([m.points for m in inst.measures])
    # rows are in range; mode="clip" lets take write to out unbuffered
    np.take(points, rows, axis=0, out=x, mode="clip")
    x *= inst.lambdas[:, None, None]
    np.add.reduce(x, axis=0, out=mean, initial=0.0)
    np.take(points, rows, axis=0, out=x, mode="clip")
    x -= mean
    # A batched matmul rounds each row as diff @ diff does; einsum may not.
    np.matmul(x[..., None, :], x[..., :, None], out=q[..., None, None])
    q *= inst.lambdas[:, None]
    np.add.reduce(q, axis=0, out=cost, initial=0.0)
    return mean


class Plan(NamedTuple):
    """Mass on combinations: distinct flat indices and the mass at each."""

    index: np.ndarray  # (k,) int64, distinct
    mass: np.ndarray  # (k,) float64
