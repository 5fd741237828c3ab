"""The binary-search exact framework vs the iterated-cut solver."""

from fractions import Fraction
from typing import List, Sequence, Tuple

import pytest

from repro.cliques import densest_subgraph_bruteforce, iter_k_cliques_naive
from repro.flow import (
    count_cliques_inside,
    exact_densest_from_cliques,
    find_denser_subgraph,
)
from repro.graph import Graph, gnp_graph


def exact_densest_binary_search(
    cliques: Sequence[Tuple[int, ...]],
    vertices: Sequence[int],
) -> Tuple[List[int], Fraction]:
    """Exact densest subgraph by the classic binary-search framework.

    The CoreExact/Goldberg approach the paper reviews in §3.1: maintain
    bounds ``l <= rho_opt <= u`` and bisect, asking the min-cut oracle
    whether a subgraph denser than the midpoint exists, until the interval
    is narrower than the minimum gap between two distinct subgraph
    densities (``1 / (|V| * (|V| - 1))``) — at which point the last
    denser-side witness is optimal.

    An independent implementation of what
    :func:`~repro.flow.exact_densest_from_cliques` (iterated cut
    extraction) computes; the tests below require the two to agree bit
    for bit.
    """
    verts = list(vertices)
    if not cliques or not verts:
        return [], Fraction(0)
    n = len(verts)
    witness = sorted(verts)
    low = Fraction(len(cliques), n)  # whole-graph density is achieved
    high = Fraction(len(cliques))  # no subgraph beats one vertex per clique
    # distinct subgraph densities a/b, b <= n differ by >= 1/(n(n-1))
    gap = Fraction(1, n * max(n - 1, 1))
    while high - low >= gap:
        mid = (low + high) / 2
        denser = find_denser_subgraph(cliques, verts, mid)
        if denser is None:
            high = mid
        else:
            witness = sorted(denser)
            low = Fraction(count_cliques_inside(cliques, witness), len(witness))
    # `low` is achieved by `witness`; nothing exceeds `high` < low + gap,
    # and densities are gap-separated, so witness is optimal
    return witness, low


class TestBinarySearchExact:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_iterated_cut(self, seed, k):
        g = gnp_graph(10, 0.5, seed=seed)
        cliques = list(iter_k_cliques_naive(g, k))
        verts = list(g.vertices())
        _, via_cuts = exact_densest_from_cliques(cliques, verts)
        _, via_bisect = exact_densest_binary_search(cliques, verts)
        assert via_cuts == via_bisect

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        g = gnp_graph(10, 0.5, seed=seed)
        cliques = list(iter_k_cliques_naive(g, 3))
        solution, density = exact_densest_binary_search(
            cliques, list(g.vertices())
        )
        _, expected = densest_subgraph_bruteforce(g, 3)
        assert float(density) == pytest.approx(expected)
        if solution:
            inside = set(solution)
            count = sum(1 for c in cliques if all(v in inside for v in c))
            assert Fraction(count, len(solution)) == density

    def test_empty_inputs(self):
        assert exact_densest_binary_search([], [0, 1]) == ([], Fraction(0))
        assert exact_densest_binary_search([(0, 1)], []) == ([], Fraction(0))

    def test_single_clique_graph(self):
        g = Graph.complete(3)
        cliques = list(iter_k_cliques_naive(g, 3))
        solution, density = exact_densest_binary_search(cliques, [0, 1, 2])
        assert solution == [0, 1, 2]
        assert density == Fraction(1, 3)
