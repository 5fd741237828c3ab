"""SCTL*'s row store equals a from-scratch filter of the path table.

A query whose path table is kept refines over a
:class:`~repro.core.reductions.RowStore` that keeps the search scope
between rounds: each round only the vertices that left it are removed,
where a round used to filter every row of the table again.  Here every
round's store is checked against that filter of the whole
table under the round's own scope, recomputed independently: the same
surviving rows in the same order, the same kept pivots in order, the
same engagement counts and the same clique total.  The scope entering
round ``t`` is the Lemma 4 cut of round ``t - 1``'s engagement at the
best density so far, inside the partitions whose Lemma 3 bound still
beats it; the best density is read off the run, everything else is
recounted here.  The check also holds for a run resumed from a
checkpoint and for a run continued from a returned round state, the way
SCTL*-Exact's flow rounds continue.
"""

import random
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import RunOptions
from repro.core import SCTIndex, sctl_star
from repro.core.reductions import (
    RowStore,
    clique_core,
    engagement_threshold,
    kp_computation,
    live_partitions,
    partition_density_bounds,
)
from repro.core.sct import add_engagement, query_paths, scope_rows
from repro.graph import Graph
from repro.graph.generators import overlapping_community_graph
from repro.obs import NULL_RECORDER, MetricsRecorder
from repro.resilience import Checkpointer, RunBudget
from repro.resilience.budget import NULL_BUDGET

# ``repro.core`` re-exports the function under the module's name
SCTL_STAR = sys.modules["repro.core.sctl_star"]


@st.composite
def graphs(draw):
    """Dense random graphs, so that most draws hold several k-cliques and
    the scope shrinks over the rounds."""
    n = draw(st.integers(min_value=5, max_value=16))
    keep = draw(st.integers(min_value=40, max_value=90))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(100) < keep
    ]
    return Graph(n, edges)


def snapshot(store):
    rows = [(list(holds), list(pivots)) for holds, pivots in store]
    return rows, list(store.counts), store.cliques, bytes(store.inside)


class RoundSpy:
    """Records, for every round run inside it, the best density its scope
    was cut at and the row store it swept."""

    def __enter__(self):
        self.densities = []
        self.stores = []
        real_live, real_sweep = SCTL_STAR.live_partitions, SCTL_STAR._sweep

        def spy_live(partition_of, bounds, best_density):
            self.densities.append(best_density)
            return real_live(partition_of, bounds, best_density)

        def spy_sweep(rows, *args):
            assert isinstance(rows, RowStore), "a kept table sweeps its store"
            self.stores.append(snapshot(rows))
            return real_sweep(rows, *args)

        self._patch = pytest.MonkeyPatch.context()
        patch = self._patch.__enter__()
        patch.setattr(SCTL_STAR, "live_partitions", spy_live)
        patch.setattr(SCTL_STAR, "_sweep", spy_sweep)
        return self

    def __exit__(self, *exc):
        self._patch.__exit__(*exc)


def check_rounds(index, table, k, spy, engagement):
    """Every recorded round against the filter of the whole table, from
    the engagement entering the first recorded round."""
    n = index.n_vertices
    full = [0] * n
    add_engagement(table, k, full)
    partition = kp_computation(index, k, paths=table)
    bounds = partition_density_bounds(partition, full, k)
    assert len(spy.densities) == len(spy.stores) > 0
    inside_before = None
    for best, (rows, counts, cliques, inside) in zip(
        spy.densities, spy.stores
    ):
        threshold = engagement_threshold(best)
        live = live_partitions(partition.partition_of, bounds, best)
        in_scope = [count >= threshold for count in engagement]
        tallies = [0] * 5
        want_counts = [0] * n
        want_rows = [
            (list(holds), list(pivots))
            for holds, pivots in scope_rows(
                table, k, tallies, in_scope, live, want_counts
            )
        ]
        assert rows == want_rows
        assert counts == want_counts
        assert cliques == tallies[4]
        assert list(inside) == [
            int(in_scope[v] and live[v]) for v in range(n)
        ]
        if inside_before is not None:
            # the scope only shrinks
            assert all(b or not a for a, b in zip(inside, inside_before))
        inside_before = inside
        engagement = want_counts


def table_of(index, k):
    with query_paths(index, k) as source:
        assume(source.table is not None and len(source.table))
        return source.table


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(graphs(), st.integers(min_value=3, max_value=5),
       st.integers(min_value=1, max_value=6))
def test_every_round_matches_a_fresh_filter(g, k, iterations):
    index = SCTIndex.build(g)
    assume(index.max_clique_size >= k)
    table = table_of(index, k)
    with RoundSpy() as spy:
        sctl_star(index, k, iterations=iterations)
    assert len(spy.stores) == iterations
    full = [0] * g.n
    add_engagement(table, k, full)
    check_rounds(index, table, k, spy, full)


@SETTINGS
@given(graphs(), st.integers(min_value=3, max_value=5),
       st.integers(min_value=1, max_value=3))
def test_a_resumed_run_matches_a_fresh_filter(g, k, stop_after):
    index = SCTIndex.build(g)
    assume(index.max_clique_size >= k)
    table = table_of(index, k)
    total = stop_after + 3
    with tempfile.TemporaryDirectory() as directory:
        ckpt = Checkpointer(directory, interval_seconds=0)
        sctl_star(
            index, k, iterations=total,
            options=RunOptions(
                budget=RunBudget(max_iterations=stop_after), checkpoint=ckpt
            ),
        )
        payload = ckpt.load("sctl-star-weights")
        assert payload["iteration"] == stop_after
        with RoundSpy() as spy:
            resumed = sctl_star(
                index, k, iterations=total,
                options=RunOptions(checkpoint=ckpt, resume=True),
            )
    assert len(spy.stores) == total - stop_after
    check_rounds(index, table, k, spy, payload["engagement"])
    assert resumed.stats["weights"] == sctl_star(
        index, k, iterations=total
    ).stats["weights"]


@SETTINGS
@given(graphs(), st.integers(min_value=3, max_value=5),
       st.integers(min_value=1, max_value=4))
def test_a_continued_run_matches_a_fresh_filter(g, k, iterations):
    index = SCTIndex.build(g)
    assume(index.max_clique_size >= k)
    table = table_of(index, k)

    def run(rounds, state=None):
        with query_paths(index, k) as source:
            return SCTL_STAR._sctl_star_run(
                index, k, rounds, None, None, True, True, False, source,
                "SCTL*", NULL_RECORDER, NULL_BUDGET, None, False,
                state=state,
            )

    _, state = run(iterations)
    with RoundSpy() as spy:
        continued, _ = run(2 * iterations, state)
    assert len(spy.stores) == iterations
    check_rounds(index, table, k, spy, state["engagement"])
    assert continued.stats["weights"] == sctl_star(
        index, k, iterations=2 * iterations
    ).stats["weights"]


@SETTINGS
@given(graphs(), st.integers(min_value=2, max_value=5), st.data())
def test_any_removals_match_a_fresh_filter(g, k, data):
    """The store's invariant under any sequence of removals, not only the
    ones SCTL*'s rounds make: after each, it is the filter of the whole
    table by the vertices still inside."""
    index = SCTIndex.build(g)
    assume(index.max_clique_size >= k)
    table = table_of(index, k)
    store = RowStore(table, k, g.n)
    inside = [True] * g.n
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        gone = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        store.remove(gone)
        for v in gone:
            inside[v] = False
        assert store.scope() == [v for v in range(g.n) if inside[v]]
        tallies = [0] * 5
        counts = [0] * g.n
        rows = [
            (list(holds), list(pivots))
            for holds, pivots in scope_rows(
                table, k, tallies, inside, None, counts
            )
        ]
        assert snapshot(store)[:3] == (rows, counts, tallies[4])
        assert len(store) == len(rows)
        assert store.dropped == tallies[3]


@pytest.fixture(scope="module")
def community():
    graph = overlapping_community_graph(
        600, 40, 20, 0.55, memberships=2, seed=1
    )
    return graph, SCTIndex.build(graph)


@pytest.mark.parametrize("k", [4, 6])
def test_community_rounds_shrink_and_match(community, k):
    """A graph whose scope loses vertices in most rounds, and at k=6
    whole partitions (Lemma 3), checked the same way."""
    graph, index = community
    with query_paths(index, k) as source:
        table = source.table
    with RoundSpy() as spy:
        sctl_star(index, k, iterations=10)
    full = [0] * graph.n
    add_engagement(table, k, full)
    check_rounds(index, table, k, spy, full)
    live_rows = [len(rows) for rows, *_ in spy.stores]
    assert live_rows[0] < len(table) and live_rows[-1] < live_rows[1]


@pytest.mark.parametrize("threshold", [1, 5, 20, 60])
def test_a_peel_on_the_store_is_the_clique_core(threshold):
    """``clique_core`` peels on the same store: its scope is the largest
    vertex set whose members each lie in ``threshold`` of its k-cliques,
    off a kept table and off a stream alike."""
    g = overlapping_community_graph(120, 12, 10, 0.6, memberships=2, seed=4)
    index = SCTIndex.build(g)
    k = 4
    inside = [True] * g.n
    with query_paths(index, k) as source:
        table = source.table
        while True:  # recount inside the shrinking set until it holds
            counts = [0] * g.n
            add_engagement(table, k, counts, inside)
            below = [
                v for v in range(g.n) if inside[v] and counts[v] < threshold
            ]
            if not below:
                break
            for v in below:
                inside[v] = False
        core = [v for v in range(g.n) if inside[v]]
        full = [0] * g.n
        add_engagement(table, k, full)
        peeled = sum(c >= threshold for c in full) - len(core)
        assert clique_core(source, k, g.n, threshold) == (core, peeled)
        source.table = None  # the same paths, streamed from the tree
        assert clique_core(source, k, g.n, threshold) == (core, peeled)


# the pruning tallies of ``sctl_star(index, k, iterations=10)`` on the
# community graph, as they read when every round filtered every row: rows
# of partitions that are not live, the other rows that do not survive,
# pivots cut from survivors, and every row of every round
PRUNING = {
    4: (0, 5804, 76, 26890),
    6: (191, 824, 0, 2430),
}


@pytest.mark.parametrize("streamed", [False, True], ids=["store", "stream"])
@pytest.mark.parametrize("k", sorted(PRUNING))
def test_pruning_counters_keep_their_values(
    community, monkeypatch, k, streamed
):
    _, index = community
    if streamed:
        # no table fits: every round filters a fresh walk of the tree
        monkeypatch.setattr(
            sys.modules["repro.core.sct"], "table_cap", lambda index: 0
        )
    recorder = MetricsRecorder()
    sctl_star(index, k, iterations=10, options=RunOptions(recorder=recorder))
    counters = recorder.counters
    connectivity, engagement, pivots, rows = PRUNING[k]
    assert counters.get("refine/path_table_streamed", 0) == int(streamed)
    assert counters["reductions/paths_pruned_connectivity"] == connectivity
    assert counters["reductions/paths_pruned_engagement"] == engagement
    assert counters["reductions/pivots_dropped"] == pivots
    assert counters["refine/paths_swept"] == rows
    # a store sweeps only the survivors; a stream reads every row
    assert counters["refine/rows_swept"] == (
        rows if streamed else rows - connectivity - engagement
    )
