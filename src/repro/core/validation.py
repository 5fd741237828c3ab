"""Independent verification of densest-subgraph results.

``verify_result`` re-derives everything a :class:`DenseSubgraphResult`
claims using only KCList (no SCT*-Index, no flow) so that a user — or a
test — can certify any algorithm's output against an independent code
path.  For ``exact`` results it optionally re-checks optimality with the
min-cut oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from ..cliques.kclist import count_k_cliques, iter_k_cliques
from ..flow.densest import find_denser_subgraph
from ..graph.graph import Graph
from ..results import DenseSubgraphResult

__all__ = ["VerificationReport", "verify_result"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a result against the graph.

    ``ok`` is the conjunction of all individual checks; failed checks are
    listed in ``problems`` in human-readable form.
    """

    ok: bool
    problems: List[str]
    recounted_cliques: int
    claimed_cliques: int
    optimality_checked: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_result(
    graph: Graph,
    result: DenseSubgraphResult,
    check_optimality: Optional[bool] = None,
) -> VerificationReport:
    """Re-derive and check every claim in ``result``.

    Checks performed:

    1. all reported vertices exist in the graph and are distinct;
    2. the reported ``clique_count`` matches an independent KCList count
       on the induced subgraph;
    3. for results flagged ``exact`` (and ``check_optimality`` not
       disabled), no subgraph of the input graph is denser — one min-cut
       over the full clique set.  Pass ``check_optimality=False`` to skip
       this (it enumerates every k-clique of the graph).

    Parameters default to checking optimality exactly when the result
    claims exactness.
    """
    problems: List[str] = []
    vertices = result.vertices
    if len(set(vertices)) != len(vertices):
        problems.append("vertex list contains duplicates")
    if any(v not in graph for v in vertices):
        problems.append("vertex list references ids outside the graph")

    recounted = 0
    if not problems and vertices:
        subgraph, _ = graph.induced_subgraph(vertices)
        recounted = count_k_cliques(subgraph, result.k)
        if recounted != result.clique_count:
            problems.append(
                f"clique_count mismatch: claimed {result.clique_count}, "
                f"recounted {recounted}"
            )
    elif not vertices and result.clique_count:
        problems.append("empty vertex list with non-zero clique_count")

    if check_optimality is None:
        check_optimality = result.exact
    optimality_checked = False
    if check_optimality and not problems:
        cliques = list(iter_k_cliques(graph, result.k))
        optimality_checked = True
        if cliques:
            density = (
                Fraction(result.clique_count, len(vertices))
                if vertices
                else Fraction(0)
            )
            denser = find_denser_subgraph(cliques, list(graph.vertices()), density)
            if denser is not None:
                problems.append(
                    f"result is not optimal: a subgraph on {len(denser)} "
                    "vertices is strictly denser"
                )
        elif vertices:
            problems.append("graph has no k-cliques but result is non-empty")

    return VerificationReport(
        ok=not problems,
        problems=problems,
        recounted_cliques=recounted,
        claimed_cliques=result.clique_count,
        optimality_checked=optimality_checked,
    )
