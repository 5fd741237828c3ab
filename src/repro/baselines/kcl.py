"""The KCL baseline (Sun et al., KClist++ / Algorithm 1 of the paper).

KCL runs the same Frank–Wolfe-flavoured update rule as SCTL — every
k-clique grants +1 to its minimum-weight vertex, ``T`` rounds, best prefix
wins — but it has no index: each round re-enumerates every k-clique from
scratch with KCList, and so does the final extraction pass.  That repeated
enumeration is precisely the inefficiency the SCT*-Index removes, so this
implementation deliberately keeps it (one fresh KCList sweep per round).

``kcl_sample`` adds the sampling strategy evaluated in the paper's Table 5:
reservoir-sample ``sigma`` cliques from one enumeration pass, refine on
the sample, then recover the reported density by enumerating the cliques
of the chosen induced subgraph.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..cliques.kclist import count_k_cliques, iter_k_cliques
from ..cliques.ordered_view import OrderedGraphView, ensure_view
from ..errors import InvalidParameterError
from ..graph.graph import Graph
from ..options import RunOptions, warn_unsupported
from ..results import DenseSubgraphResult
from ..core.extraction import best_prefix_from_cliques
from ..core.sctl import empty_result

__all__ = ["kcl", "kcl_sample"]


def kcl(
    graph: Graph,
    k: int,
    iterations: int = 10,
    view: Optional[OrderedGraphView] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Run KCL (Algorithm 1): ``T`` enumeration rounds plus extraction.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Clique size.
    iterations:
        Number of rounds ``T``; each round re-runs KCList.
    view:
        Optional pre-built ordered view (the orientation is the one piece
        of preprocessing KCL legitimately shares across rounds).
    options:
        Accepted for facade uniformity; KCL predates the SCT pipeline,
        so every :class:`~repro.options.RunOptions` knob is ignored (one
        :class:`UserWarning` names any non-default knobs).
    """
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    warn_unsupported(RunOptions.resolve(options), "KCL")
    view = ensure_view(graph, view)
    weights = [0] * graph.n
    any_clique = False
    for _ in range(iterations):
        any_clique = False
        for clique in iter_k_cliques(graph, k, view=view):
            any_clique = True
            u = min(clique, key=weights.__getitem__)
            weights[u] += 1
    if not any_clique:
        return empty_result(k, "KCL")
    # final extraction pass: one more enumeration (Lines 6-10)
    prefix = best_prefix_from_cliques(iter_k_cliques(graph, k, view=view), weights)
    upper = max(max(weights) / iterations, prefix.density)
    return DenseSubgraphResult(
        vertices=sorted(prefix.vertices),
        clique_count=prefix.clique_count,
        k=k,
        algorithm="KCL",
        iterations=iterations,
        upper_bound=upper,
        stats={"weights": weights},
    )


def kcl_sample(
    graph: Graph,
    k: int,
    sample_size: int,
    iterations: int = 10,
    seed: int = 0,
    view: Optional[OrderedGraphView] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """KCL on a uniform reservoir sample of ``sample_size`` k-cliques.

    One full enumeration pass fills the reservoir; refinement then touches
    only sampled cliques.  Density recovery enumerates the cliques of the
    chosen induced subgraph (the step SCTL*-Sample replaces with an index
    lookup).  ``options`` is accepted for facade uniformity and ignored
    (one :class:`UserWarning` names any non-default knobs).
    """
    if sample_size < 1:
        raise InvalidParameterError(f"sample_size must be >= 1, got {sample_size}")
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    warn_unsupported(RunOptions.resolve(options), "KCL-Sample")
    view = ensure_view(graph, view)
    rng = random.Random(seed)
    reservoir: List[Tuple[int, ...]] = []
    seen = 0
    for clique in iter_k_cliques(graph, k, view=view):
        seen += 1
        if len(reservoir) < sample_size:
            reservoir.append(clique)
        else:
            j = rng.randrange(seen)
            if j < sample_size:
                reservoir[j] = clique
    if not reservoir:
        return empty_result(k, "KCL-Sample")
    weights = [0] * graph.n
    for _ in range(iterations):
        for clique in reservoir:
            u = min(clique, key=weights.__getitem__)
            weights[u] += 1
    sampled_vertices = sorted({v for c in reservoir for v in c})
    prefix = best_prefix_from_cliques(
        reservoir, weights, restrict_to=sampled_vertices
    )
    chosen = sorted(prefix.vertices)
    if not chosen:
        return empty_result(k, "KCL-Sample")
    # recovery by enumeration on the induced subgraph
    subgraph, _ = graph.induced_subgraph(chosen)
    true_count = count_k_cliques(subgraph, k)
    return DenseSubgraphResult(
        vertices=chosen,
        clique_count=true_count,
        k=k,
        algorithm="KCL-Sample",
        iterations=iterations,
        stats={
            "sampled_cliques": len(reservoir),
            "total_cliques_seen": seen,
            "weights": weights,
        },
    )
