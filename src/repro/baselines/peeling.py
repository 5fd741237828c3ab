"""Greedy peeling for k-clique density (Charikar-style).

The related-work section of the paper (§8) recalls that for the edge
densest subgraph (k=2) the greedy peel — repeatedly remove the
minimum-degree vertex and keep the best prefix seen — is a linear-time
1/2-approximation (Charikar 2000, Asahiro et al. 2000).  Its k-clique
generalisation peels by minimum *clique engagement* and achieves a 1/k
approximation (Tsourakakis 2015); it is the third approximation family
alongside the (k',Psi)-core and the convex-programming algorithms, and a
useful cheap baseline.

Unlike CoreApp — which returns the innermost core — peeling remembers the
*best* suffix of the peel order, so it can only do better.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import List, Optional, Tuple

from ..cliques.kclist import iter_k_cliques, per_vertex_counts
from ..cliques.ordered_view import OrderedGraphView, build_ordered_view
from ..errors import InvalidParameterError
from ..graph.graph import Graph
from ..options import RunOptions, warn_unsupported
from ..results import DenseSubgraphResult
from ..core.sctl import empty_result

__all__ = ["greedy_peeling"]


def greedy_peeling(
    graph: Graph,
    k: int,
    view: Optional[OrderedGraphView] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Peel by minimum k-clique engagement; return the best suffix.

    Runs one peel of the whole graph.  At every step the remaining
    subgraph's clique count is maintained incrementally (removing ``v``
    destroys exactly the cliques through ``v``, i.e. the (k-1)-cliques of
    its remaining neighbourhood), so the density of every suffix is known
    exactly and the best one is returned.

    Guarantees ``density >= optimal / k``.  ``options`` is accepted for
    facade uniformity and ignored (one :class:`UserWarning` names any
    non-default knobs).
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    warn_unsupported(RunOptions.resolve(options), "Peel")
    n = graph.n
    if view is None:
        view = build_ordered_view(graph)
    engagement = per_vertex_counts(graph, k, view=view)
    remaining_cliques = sum(engagement) // k
    if remaining_cliques == 0:
        return empty_result(k, "Peel")

    alive = [True] * n
    heap: List[Tuple[int, int]] = [(engagement[v], v) for v in range(n)]
    heapq.heapify(heap)
    peel_order: List[int] = []
    best_density = Fraction(remaining_cliques, n)
    best_suffix_start = 0
    best_count = remaining_cliques
    counts_at_step: List[int] = []

    removed = 0
    while removed < n:
        count, v = heapq.heappop(heap)
        if not alive[v] or count != engagement[v]:
            continue
        counts_at_step.append(remaining_cliques)
        peel_order.append(v)
        alive[v] = False
        removed += 1
        if count:
            remaining_cliques -= count
            _discount(graph, k, v, alive, engagement, heap)
        survivors = n - removed
        if survivors and remaining_cliques:
            density = Fraction(remaining_cliques, survivors)
            if density > best_density:
                best_density = density
                best_suffix_start = removed
                best_count = remaining_cliques

    chosen = sorted(set(range(n)) - set(peel_order[:best_suffix_start]))
    return DenseSubgraphResult(
        vertices=chosen,
        clique_count=best_count,
        k=k,
        algorithm="Peel",
        stats={"peel_order": peel_order},
    )


def _discount(
    graph: Graph,
    k: int,
    v: int,
    alive: List[bool],
    engagement: List[int],
    heap: List[Tuple[int, int]],
) -> None:
    """Subtract the cliques through ``v`` from its alive co-members."""
    neighbourhood = sorted(u for u in graph.neighbors(v) if alive[u])
    if len(neighbourhood) < k - 1:
        return
    sub, originals = graph.induced_subgraph(neighbourhood)
    for clique in iter_k_cliques(sub, k - 1):
        for local in clique:
            u = originals[local]
            engagement[u] -= 1
            heapq.heappush(heap, (engagement[u], u))
