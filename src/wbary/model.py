"""Instance data model and combination-index arithmetic.

A problem instance is a list of discrete probability measures with weights.
A candidate barycenter support point corresponds to one *combination*: one
support point picked from every measure. Combinations are addressed by a
single flat index built from suffix products of the measure sizes, so the
exponentially large constraint matrix never has to be stored; any column of
it can be regenerated from the index alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MASS_TOL = 1e-12
INDEX_LIMIT = 2**63  # flat indices are kept in signed 64-bit arrays
BLOCK = 1 << 20  # entries per tile of the pricing pass


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

    @property
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


@dataclass(frozen=True)
class Combination:
    """One support point chosen from every measure, plus its flat index."""

    indices: tuple[int, ...]
    index: int


def tuple_of(h: int, strides: Strides) -> Combination:
    """Decode a flat index into per-measure point indices."""
    if not 0 <= h < strides.total:
        raise IndexError(f"combination index {h} out of range [0, {strides.total})")
    digits = tuple(
        (h // strides.suffix_products[i]) % strides.sizes[i]
        for i in range(len(strides.sizes))
    )
    return Combination(digits, h)


def index_of(indices, strides: Strides) -> int:
    """Encode per-measure point indices into the flat combination index."""
    indices = tuple(int(j) for j in indices)
    if len(indices) != len(strides.sizes):
        raise IndexError("one point index per measure required")
    for i, j in enumerate(indices):
        if not 0 <= j < strides.sizes[i]:
            raise IndexError(f"point index {j} out of range for measure {i}")
    return sum(j * strides.suffix_products[i] for i, j in enumerate(indices))


def weighted_mean(c: Combination, inst: Instance) -> np.ndarray:
    """Weight-averaged location of the points in a combination."""
    out = np.zeros(inst.dim)
    for i, j in enumerate(c.indices):
        out += inst.lambdas[i] * inst.measures[i].points[j]
    return out


def combination_cost(c: Combination, inst: Instance) -> float:
    """Weighted total squared distance from the combination's mean point."""
    mean = weighted_mean(c, inst)
    cost = 0.0
    for i, j in enumerate(c.indices):
        diff = mean - inst.measures[i].points[j]
        cost += inst.lambdas[i] * float(diff @ diff)
    return cost


def cost_vector(inst: Instance, strides: Strides, index: np.ndarray) -> np.ndarray:
    """Per-unit transport cost of the combinations in an int64 index array.

    Uses the identity  sum_i l_i |x_i|^2 - |mean|^2,  one vectorized pass per
    measure over the whole index array.
    """
    index = np.asarray(index, dtype=np.int64)
    acc_sq = np.zeros(index.shape[0])
    acc_mean = np.zeros((index.shape[0], inst.dim))
    for i, m in enumerate(inst.measures):
        j = (index // strides.suffix_products[i]) % strides.sizes[i]
        acc_sq += inst.lambdas[i] * m.sqnorms[j]
        acc_mean += inst.lambdas[i] * m.points[j]
    return acc_sq - np.einsum("ij,ij->i", acc_mean, acc_mean)


@dataclass
class SparseMass:
    """Sparse nonnegative mass vector over combination indices."""

    entries: dict[int, float] = field(default_factory=dict)

    def add(self, h: int, mass: float):
        """Accumulate mass at a combination, dropping sub-tolerance amounts."""
        if mass <= MASS_TOL:
            return
        self.entries[h] = self.entries.get(h, 0.0) + mass

    def total(self) -> float:
        return sum(self.entries.values())

    def sorted_items(self) -> list[tuple[int, float]]:
        return sorted(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)
