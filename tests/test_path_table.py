"""One path table per query: its contents, its cap, one walk, its memory.

Every SCTL-family query reads its k-cliques off one flat table of the
index's valid paths, filled by one walk (``query_paths``); a table that
would hold more int64 entries than the index itself is dropped and each
sweep walks the tree again.  The per-path shortcuts the table made worth
having (one-clique paths in ``batch_update`` and in prefix extraction)
are checked against the general code here too.
"""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from repro import RunOptions
from repro.core import (
    SCTIndex,
    SCTPath,
    batch_update,
    best_prefix_from_cliques,
    best_prefix_from_paths,
    kp_computation,
    sctl,
    sctl_star,
    sctl_star_sample,
)
from repro.core.batch import _distribute
from repro.core.sct import SCTPathTable, count_in_subset, query_paths, table_cap
from repro.graph import Graph, gnm_graph
from repro.graph.generators import overlapping_community_graph
from repro.parallel import ParallelConfig
from repro.parallel.engine import PathShardEngine

POOLED = RunOptions(parallel=ParallelConfig(workers=2))


def complete_multipartite(n, part):
    return Graph.from_edges(
        [(u, v) for u, v in combinations(range(n), 2) if u // part != v // part]
    )


@pytest.fixture(scope="module")
def community_index():
    graph = overlapping_community_graph(
        600, 40, 20, 0.55, memberships=2, seed=1
    )
    return SCTIndex.build(graph)


@pytest.fixture(scope="module")
def gnm_index():
    return SCTIndex.build(gnm_graph(300, 3000, seed=1))


@pytest.fixture
def walks(monkeypatch):
    """Count the tree walks started through ``SCTIndex._iter_traversal``."""
    started = []
    original = SCTIndex._iter_traversal

    def counted(self, *args, **kwargs):
        started.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SCTIndex, "_iter_traversal", counted)
    return started


@pytest.fixture
def pool_ops(monkeypatch):
    """The ops handed to ``PathShardEngine.map``, counted."""
    ops = Counter()
    original = PathShardEngine.map

    def spied(self, op, *args, **kwargs):
        ops[op] += 1
        return original(self, op, *args, **kwargs)

    monkeypatch.setattr(PathShardEngine, "map", spied)
    return ops


def rows_as_tuples(rows):
    return [(tuple(holds), tuple(pivots)) for holds, pivots in rows]


class TestTable:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_rows_are_the_paths_in_traversal_order(self, community_index, k):
        with query_paths(community_index, k) as source:
            assert source.table is not None
            rows = rows_as_tuples(source)
        assert rows == [
            (p.holds, p.pivots) for p in community_index.iter_paths(k)
        ]

    def test_pack_keeps_a_callers_paths(self, community_index):
        paths = community_index.collect_paths(4)
        table = SCTPathTable.pack(iter(paths))
        assert len(table) == len(paths)
        assert rows_as_tuples(table) == [(p.holds, p.pivots) for p in paths]
        assert table.entries == len(table.vertices) + 2 * len(paths)

    def test_empty_query(self):
        index = SCTIndex.build(Graph(5, [(0, 1), (1, 2)]))
        with query_paths(index, 3) as source:
            assert source.empty
            assert list(source) == []

    def test_count_in_subset_reads_the_table(self, community_index):
        scope = list(range(0, 600, 2))
        with query_paths(community_index, 4) as source:
            assert count_in_subset(source, 4, scope) == (
                community_index.count_in_subset(4, scope)
            )

    def test_memory_per_path_vertex(self, community_index):
        # a list of SCTPath takes about 42 B per path vertex here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            source = query_paths(community_index, 4)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        table = source.table
        assert (len(table), len(table.vertices)) == (2689, 12100)
        assert held <= 16 * len(table.vertices)


class TestCap:
    def test_rule(self, community_index):
        assert table_cap(community_index) == 7 * community_index.n_tree_nodes + 1

    def test_table_above_the_cap_streams(self):
        # K_{14x2}: 16,384 paths of 14 vertices, 262,144 entries against
        # a cap of 230,637 — the walk packs into bounded tables instead
        index = SCTIndex.build(complete_multipartite(28, 2))
        with query_paths(index, 14) as source:
            assert source.table is None
            assert not source.empty
            tables = [len(t) for t in source.tables()]
            rows = rows_as_tuples(source)
        assert max(tables) <= 1024 and sum(tables) == 16384
        assert rows == [(p.holds, p.pivots) for p in index.iter_paths(14)]

    def test_table_under_the_cap_is_kept(self):
        index = SCTIndex.build(complete_multipartite(28, 4))
        with query_paths(index, 7) as source:
            assert source.table is not None
            assert len(source.table) == 16384
            assert source.table.entries <= table_cap(index)


class TestPooledSource:
    def test_table_filled_through_the_pool(self, community_index, pool_ops):
        with query_paths(community_index, 4, options=POOLED) as source:
            # one pooled walk fills the table; no sweep of it needs the
            # pool, so the engine is closed
            assert dict(pool_ops) == {"paths": 1}
            assert source.table is not None
            assert source.engine is None
            rows = rows_as_tuples(source)
        assert rows == [
            (p.holds, p.pivots) for p in community_index.iter_paths(4)
        ]

    @pytest.mark.parametrize("fn", [sctl, sctl_star])
    def test_stream_through_the_pool(self, fn):
        index = SCTIndex.build(complete_multipartite(28, 2))
        serial = fn(index, 14, iterations=2)
        pooled = fn(index, 14, iterations=2, options=POOLED)
        assert pooled.to_dict(include_stats=True) == serial.to_dict(
            include_stats=True
        )


class TestPooledRounds:
    """Under ``parallel`` a round's filtering (phase A) is pooled only
    when the query streams; a kept table is read in this process."""

    @pytest.mark.parametrize(
        "part, k, fn, expected",
        [
            # K_{7x4} keeps its table: only the fill runs in the pool
            (4, 7, sctl_star, {"paths": 1}),
            # K_{14x2} streams: the fill attempt, 5 pooled rounds and
            # SCTL's one extraction
            (2, 14, sctl, {"paths": 2, "refine": 5}),
            # and for SCTL* also engagement, partition and an extraction
            # per round
            (2, 14, sctl_star, {"paths": 8, "refine": 5}),
        ],
        ids=["K7x4-sctl*", "K14x2-sctl", "K14x2-sctl*"],
    )
    def test_ops(self, pool_ops, part, k, fn, expected):
        index = SCTIndex.build(complete_multipartite(28, part))
        fn(index, k, iterations=5, options=POOLED)
        assert dict(pool_ops) == expected


class TestOneWalkPerQuery:
    def test_sctl_star(self, community_index, walks):
        sctl_star(community_index, 5, iterations=10)
        assert len(walks) == 1

    def test_sctl(self, community_index, walks):
        sctl(community_index, 5, iterations=10)
        assert len(walks) == 1

    def test_sctl_star_sample(self, community_index, walks):
        sctl_star_sample(community_index, 5, sample_size=500, iterations=10)
        assert len(walks) == 1

    def test_kp_computation(self, community_index, walks):
        kp_computation(community_index, 5)
        assert len(walks) == 1

    def test_above_the_cap_at_most_one_more_walk(self, walks):
        # SCTL* walked 3 + 2T times before its table (an emptiness probe,
        # engagement, partition, a sweep and an extraction per round);
        # SCTL walks exactly T + 2: the fill attempt, T passes and the
        # one extraction
        index = SCTIndex.build(complete_multipartite(28, 2))
        sctl_star(index, 14, iterations=3)
        assert len(walks) <= 3 + 2 * 3 + 1
        walks.clear()
        sctl(index, 14, iterations=3)
        assert len(walks) == 3 + 2


class TestOneShotPaths:
    """A caller's ``paths=`` is read once: a generator works like a list."""

    def test_sctl(self, gnm_index):
        listed = sctl(gnm_index, 4, iterations=5,
                      paths=gnm_index.collect_paths(4))
        once = sctl(gnm_index, 4, iterations=5, paths=gnm_index.iter_paths(4))
        assert listed.size == 80
        assert once.to_dict(include_stats=True) == listed.to_dict(
            include_stats=True
        )

    def test_sctl_star(self, gnm_index):
        listed = sctl_star(gnm_index, 4, iterations=5,
                           paths=gnm_index.collect_paths(4))
        once = sctl_star(gnm_index, 4, iterations=5,
                         paths=gnm_index.iter_paths(4))
        assert listed.clique_count * 18 == 7 * listed.size  # density 7/18
        assert once.to_dict(include_stats=True) == listed.to_dict(
            include_stats=True
        )

    def test_sctl_star_sample(self, gnm_index):
        listed = sctl_star_sample(gnm_index, 4, sample_size=500, iterations=5,
                                  paths=gnm_index.collect_paths(4))
        once = sctl_star_sample(gnm_index, 4, sample_size=500, iterations=5,
                                paths=gnm_index.iter_paths(4))
        assert listed.size > 0
        assert once.to_dict(include_stats=True) == listed.to_dict(
            include_stats=True
        )


def _random_one_clique_rows(rng, n_vertices, count):
    """(holds, pivots, k) with exactly one k-clique: t = 0 or t = |pivots|."""
    rows = []
    for _ in range(count):
        size = rng.randint(1, 7)
        vertices = rng.sample(range(n_vertices), size)
        n_holds = rng.randint(1, size)
        holds, pivots = vertices[:n_holds], vertices[n_holds:]
        k = n_holds if rng.random() < 0.5 else size
        rows.append((holds, pivots, k))
    return rows


class TestOneCliqueShortcuts:
    def test_batch_update_writes_what_distribute_writes(self):
        rng = random.Random(5)
        for holds, pivots, k in _random_one_clique_rows(rng, 12, 3000):
            # few distinct weights, so ties between holds and pivots abound
            weights = [rng.randrange(3) for _ in range(12)]
            expected = list(weights)
            assert _distribute(expected, list(holds), list(pivots), k, 1) == 1
            assert batch_update(weights, holds, pivots, k) == 1
            assert weights == expected

    def test_prefix_extraction_matches_the_clique_count(self):
        # best_prefix_from_cliques buckets each explicit clique at its
        # last-ranked member: the independent oracle for the shortcut
        rng = random.Random(9)
        rows = _random_one_clique_rows(rng, 12, 400)
        for k in range(1, 8):
            paths = [SCTPath(tuple(h), tuple(p)) for h, p, kk in rows if kk == k]
            cliques = [c for path in paths for c in path.iter_cliques(k)]
            assert len(cliques) == len(paths)
            weights = [rng.randrange(4) for _ in range(12)]
            assert best_prefix_from_paths(paths, weights, k) == (
                best_prefix_from_cliques(cliques, weights)
            )
