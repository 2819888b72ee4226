"""chainfold: space-time tradeoffs for exact TSP and semiring permutation
problems, built on set systems with dense maximal chains."""

from .systems import (
    CapError,
    EmptyGroundSetError,
    FormatError,
    Metrics,
    SetSystem,
    count_chains,
    induced_split,
    metrics,
    prefix_chain,
    relabel,
    supported_permutation_count,
    supports,
    union_product,
)

__all__ = [
    "CapError",
    "EmptyGroundSetError",
    "FormatError",
    "Metrics",
    "SetSystem",
    "count_chains",
    "induced_split",
    "metrics",
    "prefix_chain",
    "relabel",
    "supported_permutation_count",
    "supports",
    "union_product",
]
