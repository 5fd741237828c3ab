"""Max-flow engine and the densest-subgraph verification network."""

from .densest import (
    count_cliques_inside,
    exact_densest_from_cliques,
    find_denser_subgraph,
)
from .maxflow import MaxFlow

__all__ = [
    "MaxFlow",
    "find_denser_subgraph",
    "exact_densest_from_cliques",
    "count_cliques_inside",
]
