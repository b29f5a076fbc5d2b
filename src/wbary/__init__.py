"""Exact discrete Wasserstein barycenter solver via column generation."""

from .driver import SolveConfig, SolveResult, solve, solve_direct
from .model import (
    CapacityError,
    ContractError,
    DiscreteMeasure,
    Instance,
    make_strides,
)

__all__ = [
    "CapacityError",
    "ContractError",
    "DiscreteMeasure",
    "Instance",
    "SolveConfig",
    "SolveResult",
    "make_strides",
    "solve",
    "solve_direct",
]
