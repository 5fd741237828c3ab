"""Unit tests for the Graph container."""

import pytest

from repro.errors import GraphError
from repro.graph import Graph, iter_bits


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert list(g.edges()) == []

    def test_basic_counts(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_labels_length_checked(self):
        with pytest.raises(GraphError):
            Graph(3, [], labels=["a", "b"])

    def test_from_edges_compacts_labels(self):
        g = Graph.from_edges([("x", "y"), ("y", "z")])
        assert g.n == 3
        assert g.m == 2
        assert {g.label_of(v) for v in g.vertices()} == {"x", "y", "z"}

    def test_complete_graph(self):
        g = Graph.complete(5)
        assert g.m == 10
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        assert g == h
        assert g is not h


class TestAccessors:
    def test_neighbors_and_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.neighbors(0) == {1, 2, 3}
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_edges_yield_each_once_ordered(self):
        g = Graph(4, [(2, 1), (3, 0)])
        assert sorted(g.edges()) == [(0, 3), (1, 2)]

    def test_has_edge_symmetric(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_max_degree_empty(self):
        assert Graph(0).max_degree() == 0

    def test_contains_protocol(self):
        g = Graph(3)
        assert 2 in g
        assert 3 not in g
        assert "x" not in g

    def test_repr_mentions_counts(self):
        assert repr(Graph(2, [(0, 1)])) == "Graph(n=2, m=1)"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(1))


class TestBitsets:
    def test_iter_bits_order(self):
        assert list(iter_bits(0b1011)) == [0, 1, 3]
        assert list(iter_bits(0)) == []


class TestSubgraphs:
    def test_induced_subgraph_edges(self):
        g = Graph.complete(5)
        sub, originals = g.induced_subgraph([0, 2, 4])
        assert sub.n == 3
        assert sub.m == 3
        assert originals == [0, 2, 4]

    def test_induced_subgraph_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3).induced_subgraph([5])

    def test_induced_subgraph_deduplicates(self):
        g = Graph(4, [(0, 1)])
        sub, originals = g.induced_subgraph([1, 0, 1])
        assert sub.n == 2
        assert originals == [0, 1]

    def test_induced_preserves_labels(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        sub, _ = g.induced_subgraph([1, 2])
        assert set(sub.labels) <= {"a", "b", "c"}

    def test_is_clique(self):
        g = Graph.complete(4)
        assert g.is_clique([0, 1, 2, 3])
        assert g.is_clique([1, 3])
        assert not g.is_clique([0, 0, 1])  # duplicates are not a clique

    def test_is_clique_missing_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert not g.is_clique([0, 1, 2])
