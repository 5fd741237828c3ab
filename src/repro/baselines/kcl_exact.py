"""KCL-Exact: the Frank–Wolfe exact baseline (Sun et al., §3.2).

The large-memory variant of KCL stores, for every k-clique, how its unit
weight is split across its ``k`` members (``alpha``) and refines the split
with Frank–Wolfe steps.  Candidates are only submitted to the (expensive)
max-flow optimality test when they form a *stable set*:

1. every vertex inside the candidate outweighs every vertex outside, and
2. every clique straddling the boundary keeps all its weight inside.

If the test fails, the iteration budget doubles and refinement continues.
The per-clique storage is exactly the memory bottleneck the paper reports
(``out of memory`` on LiveJournal in Table 6); we keep the design faithful
and simply let it be expensive.  A bounded number of doublings is followed
by a guaranteed-exact fallback (iterated min-cut), so the function always
returns a certified optimum; ``stats["fallback"]`` records whether the
stable-set route succeeded on its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from ..cliques.kclist import iter_k_cliques
from ..cliques.ordered_view import OrderedGraphView, ensure_view
from ..errors import InvalidParameterError
from ..flow.densest import (
    count_cliques_inside,
    exact_densest_from_cliques,
    find_denser_subgraph,
)
from ..graph.graph import Graph
from ..options import RunOptions, warn_unsupported
from ..results import DenseSubgraphResult
from ..core.extraction import best_prefix_from_cliques
from ..core.frank_wolfe import frank_wolfe
from ..core.sctl import empty_result

__all__ = ["kcl_exact"]

_STABILITY_EPS = 1e-9


def kcl_exact(
    graph: Graph,
    k: int,
    initial_iterations: int = 10,
    max_total_iterations: int = 640,
    view: Optional[OrderedGraphView] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Exact k-clique densest subgraph via the Frank–Wolfe baseline.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Clique size.
    initial_iterations:
        First refinement budget; doubled after every failed verification.
    max_total_iterations:
        Cap on total Frank–Wolfe rounds before the exact fallback engages.
    view:
        Optional pre-built ordered view.
    options:
        Accepted for facade uniformity; every
        :class:`~repro.options.RunOptions` knob is ignored (one
        :class:`UserWarning` names any non-default knobs).
    """
    if initial_iterations < 1:
        raise InvalidParameterError(
            f"initial_iterations must be >= 1, got {initial_iterations}"
        )
    warn_unsupported(RunOptions.resolve(options), "KCL-Exact")
    view = ensure_view(graph, view)
    cliques: List[Tuple[int, ...]] = list(iter_k_cliques(graph, k, view=view))
    if not cliques:
        return empty_result(k, "KCL-Exact", exact=True)
    vertices = list(graph.vertices())

    # the per-clique weight split (the memory hog) lives in the shared
    # Frank-Wolfe state; each round continues the same step-size schedule
    state = frank_wolfe(cliques, graph.n, iterations=0)
    budget = initial_iterations
    flow_checks = 0
    while state.rounds < max_total_iterations:
        frank_wolfe(cliques, graph.n, iterations=budget, state=state)
        weights = state.weights
        prefix = best_prefix_from_cliques(cliques, weights)
        candidate = sorted(prefix.vertices)
        if candidate and _is_stable(candidate, weights, cliques, state.alpha):
            flow_checks += 1
            density = Fraction(prefix.clique_count, len(candidate))
            if find_denser_subgraph(cliques, vertices, density) is None:
                return DenseSubgraphResult(
                    vertices=candidate,
                    clique_count=prefix.clique_count,
                    k=k,
                    algorithm="KCL-Exact",
                    iterations=state.rounds,
                    upper_bound=float(density),
                    exact=True,
                    stats={
                        "cliques_stored": len(cliques),
                        "flow_checks": flow_checks,
                        "fallback": False,
                    },
                )
        budget *= 2

    # guaranteed-exact fallback: iterated min-cut from the best candidate
    prefix = best_prefix_from_cliques(cliques, state.weights)
    warm = sorted(prefix.vertices) or None
    solution, density = exact_densest_from_cliques(cliques, vertices, warm_start=warm)
    return DenseSubgraphResult(
        vertices=solution,
        clique_count=count_cliques_inside(cliques, solution),
        k=k,
        algorithm="KCL-Exact",
        iterations=state.rounds,
        upper_bound=float(density),
        exact=True,
        stats={
            "cliques_stored": len(cliques),
            "flow_checks": flow_checks + 1,
            "fallback": True,
        },
    )


def _is_stable(
    candidate: List[int],
    weights: List[float],
    cliques: List[Tuple[int, ...]],
    alpha: List[List[float]],
) -> bool:
    """The stable-set test of Sun et al. (§3.2)."""
    inside = set(candidate)
    min_inside = min(weights[v] for v in inside)
    max_outside = max(
        (weights[v] for v in range(len(weights)) if v not in inside),
        default=float("-inf"),
    )
    if min_inside <= max_outside + _STABILITY_EPS:
        return False
    for ci, clique in enumerate(cliques):
        members_inside = sum(1 for v in clique if v in inside)
        if members_inside == 0 or members_inside == len(clique):
            continue
        split = alpha[ci]
        outside_mass = sum(
            split[pos] for pos, v in enumerate(clique) if v not in inside
        )
        if outside_mass > _STABILITY_EPS:
            return False
    return True
