"""Top-s dense regions: iterated densest-subgraph extraction.

Applications (fraud rings, protein complexes, story detection) rarely
want a single subgraph — they want the handful of densest, *disjoint*
regions.  The standard recipe is iterative: find the k-clique densest
subgraph, remove its vertices, repeat.  Each round reuses the machinery
of this package (a fresh SCT*-Index per shrunken graph — cheap, since the
graph only shrinks).
"""

from __future__ import annotations

from typing import List

from ..errors import InvalidParameterError
from ..graph.graph import Graph
from ..results import DenseSubgraphResult
from .exact import sctl_star_exact
from .sct import SCTIndex
from .sctl_star import sctl_star

__all__ = ["top_dense_subgraphs"]


def top_dense_subgraphs(
    graph: Graph,
    k: int,
    count: int,
    exact: bool = False,
    iterations: int = 10,
    min_density: float = 0.0,
    seed: int = 0,
) -> List[DenseSubgraphResult]:
    """Up to ``count`` vertex-disjoint dense subgraphs, densest first.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Clique size.
    count:
        Maximum number of regions to extract.
    exact:
        Solve each round exactly (SCTL*-Exact) instead of approximately
        (SCTL*).
    iterations:
        Refinement passes per round.
    min_density:
        Stop early once the next region's density falls to or below this.
    seed:
        RNG seed for the exact solver's sampling stage.

    Vertex ids in the results always refer to the *input* graph.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    results: List[DenseSubgraphResult] = []
    current = graph
    id_map = list(graph.vertices())  # current-graph id -> original id
    for _ in range(count):
        if current.n == 0:
            break
        index = SCTIndex.build(current)
        if index.max_clique_size < k:
            break
        if exact:
            found = sctl_star_exact(
                current, k, index=index, iterations=iterations, seed=seed
            )
        else:
            found = sctl_star(index, k, iterations=iterations)
        if not found.vertices or found.density <= min_density:
            break
        original_vertices = sorted(id_map[v] for v in found.vertices)
        results.append(
            DenseSubgraphResult(
                vertices=original_vertices,
                clique_count=found.clique_count,
                k=k,
                algorithm=found.algorithm,
                iterations=found.iterations,
                upper_bound=found.upper_bound,
                exact=found.exact,
                stats={"round": len(results) + 1},
            )
        )
        survivors = [v for v in current.vertices() if v not in set(found.vertices)]
        current, kept = current.induced_subgraph(survivors)
        id_map = [id_map[v] for v in kept]
    return results
