"""The degeneracy-ordered view: out-lists, the dense block, per-root rows."""

import tracemalloc

import pytest

from repro.cliques import build_ordered_view
from repro.cliques.kclist import count_k_cliques
from repro.cliques.ordered_view import ensure_view
from repro.core import SCTIndex
from repro.errors import InvalidParameterError
from repro.graph import Graph, gnp_graph, iter_bits
from repro.graph.generators import gnm_graph, planted_clique_graph


def _in_edges(view):
    """Each position's earlier neighbours, read off the out-lists."""
    earlier = [[] for _ in range(view.n)]
    for i, later in enumerate(view.out):
        for j in later:
            earlier[j].append(i)
    return earlier


class TestOrderedView:
    @pytest.mark.parametrize("seed", range(4))
    def test_adjacency_bits_match_graph(self, seed):
        # n + m is small here, so the dense block spans every position
        g = gnp_graph(20, 0.3, seed=seed)
        view = build_ordered_view(g)
        assert view.block_start == 0
        block = view.dense_block()
        for i in range(g.n):
            v = view.order[i]
            neighbours = {view.order[j] for j in iter_bits(block[i])}
            assert neighbours == g.neighbors(v)

    def test_out_lists_ascending_above_position(self):
        g = gnp_graph(20, 0.3, seed=1)
        view = build_ordered_view(g)
        for i, later in enumerate(view.out):
            assert later == sorted(later)
            assert all(j > i for j in later)

    def test_out_degree_bounded_by_degeneracy(self):
        g = gnp_graph(25, 0.3, seed=2)
        view = build_ordered_view(g)
        assert max(map(len, view.out), default=0) <= view.degeneracy

    @pytest.mark.parametrize("seed", range(3))
    def test_out_and_in_edges_are_the_adjacency(self, seed):
        g = gnm_graph(300, 900, seed=seed)
        view = build_ordered_view(g)
        earlier = _in_edges(view)
        for i in range(g.n):
            neighbours = view.to_original(earlier[i] + view.out[i])
            assert len(neighbours) == g.degree(view.order[i])
            assert set(neighbours) == g.neighbors(view.order[i])

    def test_block_rows_are_the_adjacency_inside_the_block(self):
        g = planted_clique_graph(600, 40, 0.01, seed=3)
        view = build_ordered_view(g)
        b0 = view.block_start
        assert 0 < b0 < g.n
        block = view.dense_block()
        assert len(block) == g.n - b0
        for s, row in enumerate(block):
            v = view.order[b0 + s]
            inside = {u for u in g.neighbors(v) if view.position[u] >= b0}
            assert {view.order[b0 + t] for t in iter_bits(row)} == inside

    def test_root_rows_from_both_sources(self):
        g = planted_clique_graph(600, 40, 0.01, seed=3)
        view = build_ordered_view(g)
        sources = set()
        for i in range(g.n):
            rows, pos, cand = view.root_rows(i)
            sources.add(view.uses_block(i))
            members = list(iter_bits(cand))
            assert [pos[t] for t in members] == view.out[i]
            for t in members:
                u = view.order[pos[t]]
                got = {view.order[pos[s]] for s in iter_bits(rows[t] & cand)}
                want = g.neighbors(u) & set(view.to_original(view.out[i]))
                assert got == want
        assert sources == {False, True}

    def test_to_original_roundtrip(self):
        g = gnp_graph(10, 0.4, seed=3)
        view = build_ordered_view(g)
        assert sorted(view.to_original(range(g.n))) == list(range(g.n))

    def test_core_numbers_indexed_by_position(self):
        from repro.graph import core_decomposition

        g = gnp_graph(15, 0.4, seed=4)
        decomp = core_decomposition(g)
        view = build_ordered_view(g, decomp)
        for i in range(g.n):
            assert view.core_number[i] == decomp.core_number[view.order[i]]

    def test_empty_graph(self):
        view = build_ordered_view(Graph(0))
        assert view.n == 0
        assert view.out == []
        assert view.dense_block() == []


class TestStorage:
    def test_view_is_linear_in_n_plus_m(self):
        # sparse and wide: an n-bit row per vertex would hold ~n^2/8 bytes
        g = gnm_graph(20000, 40000, seed=1)
        tracemalloc.start()
        try:
            view = build_ordered_view(g)
            view.dense_block()  # force the block
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert view.dense_block()
        assert held <= 256 * (g.n + g.m)


class TestEnsureView:
    def test_builds_when_absent(self):
        g = gnp_graph(12, 0.4, seed=1)
        assert ensure_view(g).graph is g

    def test_accepts_a_view_of_an_equal_graph(self):
        g = gnp_graph(12, 0.4, seed=1)
        view = build_ordered_view(g.copy())
        assert ensure_view(g, view) is view

    def test_rejects_a_view_of_another_graph(self):
        g1 = gnm_graph(50, 200, seed=1)
        view = build_ordered_view(gnm_graph(60, 400, seed=2))
        with pytest.raises(InvalidParameterError):
            SCTIndex.build(g1, view=view)
        with pytest.raises(InvalidParameterError):
            count_k_cliques(g1, 3, view=view)
