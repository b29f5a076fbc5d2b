"""Instance data model and combination-index arithmetic.

A problem instance is a list of discrete probability measures with weights.
A candidate barycenter support point corresponds to one *combination*: one
support point picked from every measure. Combinations are addressed by a
single flat index built from suffix products of the measure sizes, so the
exponentially large constraint matrix never has to be stored; any column of
it can be regenerated from the index alone.

``digits`` is the one decode from flat indices to point indices, and
``mean_costs`` the one cost formula: the full LP, the master columns (both
through ``cost_vector``) and the reported objective cost combinations with
it. Only pricing scores them another way, by the reduced costs of its split
state (pricing.py). ``Plan`` is the one plan format: start vertices, master
columns and optimal plans are index and mass arrays, read directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

MASS_TOL = 1e-12
INDEX_LIMIT = 2**63  # flat indices are kept in signed 64-bit arrays
BLOCK = 1 << 20  # entries per tile of the pricing pass and of cost_vector


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


def index_of(indices, strides: Strides) -> int:
    """Encode per-measure point indices into the flat combination index."""
    indices = tuple(int(j) for j in indices)
    if len(indices) != len(strides.sizes):
        raise IndexError("one point index per measure required")
    for i, j in enumerate(indices):
        if not 0 <= j < strides.sizes[i]:
            raise IndexError(f"point index {j} out of range for measure {i}")
    return sum(j * strides.suffix_products[i] for i, j in enumerate(indices))


def digits(index: np.ndarray, strides: Strides) -> np.ndarray:
    """Decode flat combination indices: row i holds measure i's point indices.

    Returns an (n, k) int64 array for k indices, the inverse of index_of.
    """
    index = np.asarray(index, dtype=np.int64)
    out = index // np.asarray(strides.suffix_products, dtype=np.int64)[:, None]
    out %= np.asarray(strides.sizes, dtype=np.int64)[:, None]
    return out


def cost_vector(inst: Instance, strides: Strides, index: np.ndarray) -> np.ndarray:
    """Per-unit transport cost of the combinations in an int64 index array,
    decoded and costed by ``mean_costs`` one tile at a time."""
    index = np.asarray(index, dtype=np.int64)
    cost = np.empty(index.shape[0])
    for s in range(0, index.shape[0], BLOCK):
        cost[s : s + BLOCK] = mean_costs(inst, digits(index[s : s + BLOCK], strides))[1]
    return cost


def mean_costs(inst: Instance, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean points (k, dim) and costs (k,) of decoded combinations.

    Two passes over the points: the weighted mean, then
    sum_i l_i |x_i - mean|^2. The expanded form sum_i l_i |x_i|^2 - |mean|^2
    is one pass, but it subtracts two numbers of the size of |x|^2, which
    cancel to a cost of the size of the spread: at offsets of 1e7 that
    loses every digit of it.
    """
    mean = np.zeros((d.shape[1], inst.dim))
    for lam, m, j in zip(inst.lambdas, inst.measures, d):
        mean += lam * m.points.take(j, axis=0)
    cost = np.zeros(d.shape[1])
    for lam, m, j in zip(inst.lambdas, inst.measures, d):
        diff = m.points.take(j, axis=0) - mean
        # A batched matmul rounds each row as diff @ diff does; einsum may not.
        cost += lam * (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    return mean, cost


class Plan(NamedTuple):
    """Mass on combinations: distinct flat indices and the mass at each."""

    index: np.ndarray  # (k,) int64, distinct
    mass: np.ndarray  # (k,) float64
