"""SCTL*-Exact output pinned against SHA-256 digests, and its work counted.

The digests pin the JSON of each result, statistics included, so a change
in the warm start, the scope reduction, the nested refinement or the flow
rounds shows up even when every mode changes alike.  They do not depend
on the Python version or on ``PYTHONHASHSEED``.

Beside the answers, the work: one call walks the full SCT*-Index once (one
path table feeds the warm start and the scope reduction), flow round
``r`` continues the nested SCTL* from round ``r-1`` (so ``R`` rounds run
``T·2^(R-1)`` iterations, not ``T·(2^R-1)``), and the one-pass peel finds
the same scope as recounting inside the shrinking scope until nothing
changes.

The complete multipartite graphs are built as in ``test_refine_golden``:
``K_{14x2}`` at k=14 needs more table entries than the index holds, so it
runs off a stream of the tree; ``K_{7x4}`` at k=7 fits in its table.
"""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SCTIndex, sctl_star_exact
from repro.core.reductions import clique_core
from repro.core.sct import query_paths
from repro.graph import Graph, gnp_graph
from repro.graph.generators import overlapping_community_graph
from repro.obs import MetricsRecorder
from repro.options import RunOptions


def community(seed: int, n: int, communities: int, size: int, p: float) -> Graph:
    return overlapping_community_graph(
        n, communities, size, p, memberships=2, seed=seed
    )


def complete_multipartite(n: int, part: int) -> Graph:
    return Graph.from_edges(
        [(u, v) for u, v in combinations(range(n), 2) if u // part != v // part]
    )


GRAPHS = {
    "C": lambda: community(1, 600, 40, 20, 0.55),
    "D": lambda: community(3, 300, 20, 16, 0.5),
    "E": lambda: community(3, 600, 40, 20, 0.55),
    "K14x2": lambda: complete_multipartite(28, 2),
    "K7x4": lambda: complete_multipartite(28, 4),
}

# name: (graph, k, T, digest, flow rounds, nested refine/iterations)
CALLS = {
    "C-5": (
        "C", 5, 7,
        "1f78e277bae0b56aad2a5415b15c63f1e62e017fb3055ab77b1d87242b6fc091",
        2, 14,
    ),
    "C-6": (
        "C", 6, 7,
        "0ced7dcc0fb737b3bf7dbc137ca9ca916cfe02cb02938b473e46c682e51735a7",
        2, 14,
    ),
    "D-4": (
        "D", 4, 5,
        "7ef98f0bb89c96fe947a201094b28351f190415f21b3a87755155afd28751ba0",
        3, 20,
    ),
    "E-5": (
        "E", 5, 5,
        "cc4f452af5a9fea80a2401a3757e0083d963c877872c302146a4be3ef39531d7",
        3, 20,
    ),
    "K14x2-14": (
        "K14x2", 14, 5,
        "76a04d88c1f8c962a696c26fa46d2aa7298620d0ae50833fd187e32ab145399b",
        1, 5,
    ),
    "K7x4-7": (
        "K7x4", 7, 5,
        "6925365be72e01858a5880a87627ea53aadb845cf67d39869d999d53e4b6d2b0",
        1, 5,
    ),
}

# calls whose path table fits, so the full index is walked exactly once
TABLE_CALLS = ["C-5", "C-6", "D-4", "E-5", "K7x4-7"]


@pytest.fixture(scope="module")
def indexed():
    cache = {}

    def get(name):
        if name not in cache:
            graph = GRAPHS[name]()
            cache[name] = (graph, SCTIndex.build(graph))
        return cache[name]

    return get


def digest(result) -> str:
    payload = result.to_json(include_stats=True, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_exact_matches_golden(indexed, name):
    graph_name, k, iterations, expected, rounds, nested = CALLS[name]
    graph, index = indexed(graph_name)
    rec = MetricsRecorder()
    result = sctl_star_exact(
        graph, k, index=index, iterations=iterations, seed=0,
        options=RunOptions(recorder=rec),
    )
    assert digest(result) == expected
    assert result.stats["flow_rounds"] == rounds
    # round r continues round r-1: T·2^(R-1) nested iterations in all
    assert rec.counters["refine/iterations"] == nested
    assert nested == iterations * 2 ** (rounds - 1)


@pytest.mark.parametrize("name", TABLE_CALLS)
def test_full_index_walked_once(indexed, monkeypatch, name):
    graph_name, k, iterations = CALLS[name][:3]
    graph, index = indexed(graph_name)
    walks = {}
    original = SCTIndex._iter_traversal

    def counting(self, *args, **kwargs):
        walks[id(self)] = walks.get(id(self), 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SCTIndex, "_iter_traversal", counting)
    sctl_star_exact(graph, k, index=index, iterations=iterations, seed=0)
    assert walks[id(index)] == 1


def recount_scope(index: SCTIndex, k: int, threshold: int):
    """The Lemma 4 fixed point by recounting inside the shrinking scope."""
    engagement = index.per_vertex_counts(k)
    scope = [v for v in range(index.n_vertices) if engagement[v] >= threshold]
    while True:
        inside = index.per_vertex_counts_in_subset(k, scope)
        reduced = [v for v in scope if inside[v] >= threshold]
        if len(reduced) == len(scope):
            return scope
        scope = reduced


def assert_peel_matches_recount(index: SCTIndex, k: int, threshold: int):
    engagement = index.per_vertex_counts(k)
    first_cut = sum(1 for e in engagement if e >= threshold)
    with query_paths(index, k) as source:
        scope, peeled = clique_core(source, k, index.n_vertices, threshold)
    assert scope == recount_scope(index, k, threshold)
    assert peeled == first_cut - len(scope)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_peel_matches_recount_on_golden_graphs(indexed, name):
    graph_name, k = CALLS[name][:2]
    _, index = indexed(graph_name)
    engagement = sorted(set(index.per_vertex_counts(k)))
    # a spread of cuts: from keeping everything to keeping the top
    picks = {engagement[i * (len(engagement) - 1) // 6] for i in range(7)}
    for threshold in sorted(picks | {1}):
        assert_peel_matches_recount(index, k, threshold)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=4, max_value=24),
    st.floats(min_value=0.2, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=40),
)
def test_peel_matches_recount_on_random_graphs(n, p, seed, k, threshold):
    index = SCTIndex.build(gnp_graph(n, p, seed=seed))
    assert_peel_matches_recount(index, k, threshold)
