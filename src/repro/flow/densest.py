"""Flow-network machinery for exact k-clique densest subgraph detection.

Following the classic Goldberg construction lifted to the k-clique
hypergraph (Tsourakakis'15 / Fang et al.'19 / Sun et al.'20): given the set
of k-cliques ``C`` over a vertex set ``V`` and a guess ``alpha = a/b``,
build the network

* ``source -> clique`` with capacity ``b`` (one arc per k-clique),
* ``clique -> member vertex`` with capacity ``+inf``,
* ``vertex -> sink`` with capacity ``a``,

so that ``min_cut = b*|C| - max_S (b*|C(S)| - a*|S|)``.  A subgraph denser
than ``alpha`` exists **iff** ``min_cut < b*|C|``, and the source side of a
minimum cut realises the maximiser.  All capacities stay integral, so the
optimality test is exact — no floating-point tolerance anywhere.

The exact solvers use :func:`find_denser_subgraph` as their optimality
oracle and :func:`exact_densest_from_cliques` as a self-contained exact
solver (iterated cut extraction; densities strictly increase and live in a
finite set, so it terminates).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .maxflow import MaxFlow

__all__ = [
    "find_denser_subgraph",
    "exact_densest_from_cliques",
    "count_cliques_inside",
]


def count_cliques_inside(cliques: Sequence[Tuple[int, ...]], vertices) -> int:
    """Number of cliques whose vertex set lies entirely in ``vertices``."""
    inside = set(vertices)
    return sum(1 for c in cliques if all(v in inside for v in c))


def find_denser_subgraph(
    cliques: Sequence[Tuple[int, ...]],
    vertices: Sequence[int],
    alpha: Fraction,
    maximal: bool = False,
) -> Optional[List[int]]:
    """A vertex set with k-clique density strictly above ``alpha``, or None.

    Parameters
    ----------
    cliques:
        Every k-clique of the graph under consideration (vertex-id tuples).
    vertices:
        The vertex universe; ids may be arbitrary non-negative ints.
    alpha:
        The density threshold as an exact rational.
    maximal:
        Return the *maximal* maximiser instead of the minimal one (all
        minimum cuts share the same value; the density-friendly
        decomposition needs the inclusion-wise largest witness).

    Returns a maximiser of ``|C(S)| - alpha * |S|`` when its value is
    positive; this set has density ``> alpha``.
    """
    verts = list(vertices)
    if not cliques or not verts:
        return None
    a, b = alpha.numerator, alpha.denominator
    if a < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    n_cliques = len(cliques)
    vertex_node = {v: 2 + n_cliques + i for i, v in enumerate(verts)}
    network = MaxFlow(2 + n_cliques + len(verts))
    source, sink = 0, 1
    infinite = b * n_cliques + 1
    for ci, clique in enumerate(cliques):
        cnode = 2 + ci
        network.add_edge(source, cnode, b)
        for v in clique:
            network.add_edge(cnode, vertex_node[v], infinite)
    for v in verts:
        network.add_edge(vertex_node[v], sink, a)
    cut = network.max_flow(source, sink)
    if cut >= b * n_cliques:
        return None
    if maximal:
        side = set(network.min_cut_source_side_maximal(sink))
    else:
        side = set(network.min_cut_source_side(source))
    result = [v for v in verts if vertex_node[v] in side]
    return result or None


def exact_densest_from_cliques(
    cliques: Sequence[Tuple[int, ...]],
    vertices: Sequence[int],
    warm_start: Optional[Sequence[int]] = None,
) -> Tuple[List[int], Fraction]:
    """Exact k-clique densest subgraph given the full clique list.

    Iterated min-cut extraction: start from ``warm_start`` (or the full
    vertex set), repeatedly ask :func:`find_denser_subgraph` for something
    strictly denser, stop when nothing is.  Returns ``(vertex_list,
    exact_density)``; an empty clique list yields ``([], 0)``.
    """
    verts = list(vertices)
    if not cliques or not verts:
        return [], Fraction(0)
    if warm_start:
        current = sorted(set(warm_start))
        best = Fraction(count_cliques_inside(cliques, current), len(current))
    else:
        current = sorted(verts)
        best = Fraction(len(cliques), len(current))
    while True:
        denser = find_denser_subgraph(cliques, verts, best)
        if denser is None:
            return current, best
        density = Fraction(count_cliques_inside(cliques, denser), len(denser))
        if density <= best:  # defensive: cut must strictly improve
            return current, best
        current, best = sorted(denser), density
