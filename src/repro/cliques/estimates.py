"""Cheap upper bounds on clique counts.

Enumerating k-cliques can be astronomically expensive (the reason the
paper's baselines time out), so it pays to *bound* the count before
committing to an enumeration.  Two classic bounds, both computable in
near-linear time:

* **degeneracy bound** — every k-clique has a unique first vertex in the
  degeneracy order, whose out-neighbourhood (size <= degeneracy d) must
  contain the other k-1 members: ``|C_k| <= sum_v C(min(d, |N+(v)|), k-1)``;
* **Kruskal–Katona** — from the edge count alone: if ``m = C(x, 2)`` for
  real ``x``, then ``|C_k| <= C(x, k)``.

The bench harness uses these to predict which baseline calls are hopeless
(and the tests confirm the bounds dominate the exact counts).
"""

from __future__ import annotations

from math import comb, sqrt
from typing import Optional

from ..errors import InvalidParameterError
from ..graph.graph import Graph
from .ordered_view import OrderedGraphView, ensure_view

__all__ = [
    "degeneracy_clique_bound",
    "kruskal_katona_clique_bound",
    "clique_count_upper_bound",
]


def degeneracy_clique_bound(
    graph: Graph, k: int, view: Optional[OrderedGraphView] = None
) -> int:
    """Degeneracy-ordering upper bound on ``|C_k(G)|``."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if k == 1:
        return graph.n
    view = ensure_view(graph, view)
    return sum(comb(len(later), k - 1) for later in view.out)


def _generalized_binomial(x: float, k: int) -> float:
    """``C(x, k)`` for real ``x >= k - 1`` (0 below)."""
    if x < k - 1:
        return 0.0
    result = 1.0
    for i in range(k):
        result *= (x - i) / (k - i)
    return max(result, 0.0)


def kruskal_katona_clique_bound(graph: Graph, k: int) -> float:
    """Kruskal–Katona upper bound on ``|C_k(G)|`` from the edge count.

    With ``m = C(x, 2)`` (``x`` real), ``|C_k| <= C(x, k)``.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if k == 1:
        return float(graph.n)
    if k == 2:
        return float(graph.m)
    if graph.m == 0:
        return 0.0
    # solve m = x(x-1)/2 for x
    x = (1 + sqrt(1 + 8 * graph.m)) / 2
    return _generalized_binomial(x, k)


def clique_count_upper_bound(
    graph: Graph, k: int, view: Optional[OrderedGraphView] = None
) -> float:
    """The tighter of the two bounds."""
    return min(
        float(degeneracy_clique_bound(graph, k, view=view)),
        kruskal_katona_clique_bound(graph, k),
    )
