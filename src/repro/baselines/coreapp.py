"""CoreApp and CoreExact: the (k',Psi)-core baselines (Fang et al., §3.1).

The (k',Psi)-core is the maximal subgraph in which every vertex lies in at
least ``k'`` k-cliques.  :func:`psi_core_decomposition` peels vertices in
order of minimum clique engagement (the hypergraph analogue of the k-core
peel), recounting locally: removing ``v`` only disturbs the cliques through
``v``, i.e. the (k-1)-cliques of its alive neighbourhood.

* :func:`core_app` returns the (k'_max, Psi)-core — the paper's 1/k
  approximation, whose practical accuracy Table 3 shows to be well below
  the convex-programming algorithms.
* :func:`core_exact` reduces the graph to the (ceil(l), Psi)-core for the
  CoreApp lower bound ``l``, then solves each connected component exactly
  with the min-cut oracle, skipping components whose Lemma 3 bound is
  already dominated.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import List, Optional, Tuple

from ..cliques.kclist import count_k_cliques, iter_k_cliques, per_vertex_counts
from ..cliques.ordered_view import OrderedGraphView, ensure_view
from ..errors import InvalidParameterError
from ..flow.densest import count_cliques_inside, exact_densest_from_cliques
from ..graph.components import connected_components
from ..graph.graph import Graph
from ..options import RunOptions, warn_unsupported
from ..results import DenseSubgraphResult
from ..core.reductions import engagement_threshold
from ..core.sctl import empty_result

__all__ = ["psi_core_decomposition", "core_app", "core_exact"]


def psi_core_decomposition(
    graph: Graph, k: int, view: Optional[OrderedGraphView] = None
) -> List[int]:
    """Per-vertex (k',Psi)-core numbers by minimum-engagement peeling.

    ``core[v] >= k'`` iff ``v`` belongs to the (k',Psi)-core.  Vertices in
    no k-clique get core number 0.
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    n = graph.n
    engagement = per_vertex_counts(graph, k, view=view)
    core = [0] * n
    alive = [True] * n
    heap: List[Tuple[int, int]] = [(engagement[v], v) for v in range(n)]
    heapq.heapify(heap)
    current = 0
    removed = 0
    while removed < n:
        count, v = heapq.heappop(heap)
        if not alive[v] or count != engagement[v]:
            continue  # stale heap entry
        current = max(current, count)
        core[v] = current
        alive[v] = False
        removed += 1
        if count:
            _discount_neighbours(graph, k, v, alive, engagement, heap)
    return core


def _discount_neighbours(
    graph: Graph,
    k: int,
    v: int,
    alive: List[bool],
    engagement: List[int],
    heap: List[Tuple[int, int]],
) -> None:
    """Subtract the cliques through ``v`` from its alive co-members.

    Cliques through ``v`` correspond to (k-1)-cliques of the subgraph
    induced by the alive neighbourhood of ``v``.
    """
    neighbourhood = sorted(u for u in graph.neighbors(v) if alive[u])
    if len(neighbourhood) < k - 1:
        return
    sub, originals = graph.induced_subgraph(neighbourhood)
    for clique in iter_k_cliques(sub, k - 1):
        for local in clique:
            u = originals[local]
            engagement[u] -= 1
            heapq.heappush(heap, (engagement[u], u))


def core_app(
    graph: Graph,
    k: int,
    view: Optional[OrderedGraphView] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """CoreApp: return the (k'_max, Psi)-core as the approximate answer.

    ``options`` is accepted for facade uniformity and ignored (one
    :class:`UserWarning` names any non-default knobs).
    """
    warn_unsupported(RunOptions.resolve(options), "CoreApp")
    view = ensure_view(graph, view)
    core = psi_core_decomposition(graph, k, view=view)
    k_prime_max = max(core, default=0)
    if k_prime_max == 0:
        return empty_result(k, "CoreApp")
    chosen = sorted(v for v in graph.vertices() if core[v] >= k_prime_max)
    subgraph, _ = graph.induced_subgraph(chosen)
    clique_count = count_k_cliques(subgraph, k)
    return DenseSubgraphResult(
        vertices=chosen,
        clique_count=clique_count,
        k=k,
        algorithm="CoreApp",
        stats={"k_prime_max": k_prime_max, "core_numbers": core},
    )


def core_exact(
    graph: Graph,
    k: int,
    view: Optional[OrderedGraphView] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """CoreExact: core-reduced, per-component exact search.

    Lemma 1 places the optimum inside the (ceil(rho_opt), Psi)-core, which
    by core nesting lies inside the (ceil(l), Psi)-core for any achieved
    density ``l``; every connected component of that core is then solved
    exactly with the min-cut oracle unless its Lemma 3 bound is dominated.
    ``options`` is accepted for facade uniformity and ignored (one
    :class:`UserWarning` names any non-default knobs).
    """
    warn_unsupported(RunOptions.resolve(options), "CoreExact")
    view = ensure_view(graph, view)
    app = core_app(graph, k, view=view)
    if not app.vertices:
        return empty_result(k, "CoreExact", exact=True)
    core = app.stats["core_numbers"]
    best_vertices = app.vertices
    best_count = app.clique_count
    best_density = app.density_fraction
    threshold = engagement_threshold(best_density)
    scope = sorted(v for v in graph.vertices() if core[v] >= threshold)
    reduced, originals = graph.induced_subgraph(scope)
    components_checked = 0
    for component in connected_components(reduced):
        cliques = _component_cliques(reduced, component, originals, k)
        if not cliques:
            continue
        engagement: dict = {}
        for clique in cliques:
            for u in clique:
                engagement[u] = engagement.get(u, 0) + 1
        bound = Fraction(max(engagement.values()), k)
        if bound <= best_density:
            continue  # Lemma 3: this component cannot win
        components_checked += 1
        universe = sorted({u for clique in cliques for u in clique})
        warm = [v for v in best_vertices if v in set(universe)] or None
        solution, density = exact_densest_from_cliques(
            cliques, universe, warm_start=warm
        )
        if density > best_density:
            best_vertices = solution
            best_count = count_cliques_inside(cliques, solution)
            best_density = density
    return DenseSubgraphResult(
        vertices=sorted(best_vertices),
        clique_count=best_count,
        k=k,
        algorithm="CoreExact",
        upper_bound=float(best_density),
        exact=True,
        stats={
            "core_scope": len(scope),
            "components_checked": components_checked,
            "k_prime_max": app.stats["k_prime_max"],
        },
    )


def _component_cliques(
    reduced: Graph, component: List[int], originals: List[int], k: int
) -> List[Tuple[int, ...]]:
    """k-cliques of one component, mapped back to original vertex ids."""
    sub, locals_ = reduced.induced_subgraph(component)
    return [
        tuple(originals[locals_[u]] for u in clique)
        for clique in iter_k_cliques(sub, k)
    ]
