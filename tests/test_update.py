"""Incremental SCT*-Index maintenance (``repro.core.update``).

The contract under test is *byte parity*: after any sequence of edge
batches, the incrementally-maintained index is byte-identical (in the
v2 on-disk encoding) to ``SCTIndex.build`` run from scratch on the
updated graph — serial or parallel.  Everything else (dirty-region
accounting, warm-started re-refinement, budget behaviour) layers on top
of that invariant.
"""

import io
import random
import time

import pytest

from repro import densest_subgraph
from repro.core import (
    DirtyRegion,
    SCTIndex,
    apply_edge_updates,
    compute_update,
    sctl,
    sctl_plus,
    sctl_star,
)
from repro.errors import BudgetExhausted, InvalidParameterError
from repro.graph import Graph, gnp_graph, relaxed_caveman_graph
from repro.graph.generators import overlapping_community_graph
from repro.obs import MetricsRecorder
from repro.options import RunOptions
from repro.resilience import RunBudget


def index_bytes(index: SCTIndex) -> bytes:
    """The index's canonical v2 encoding (the parity oracle)."""
    buffer = io.BytesIO()
    index._write_v2(buffer)
    return buffer.getvalue()


def edges_of(graph: Graph):
    return sorted(
        (u, v)
        for u in range(graph.n)
        for v in graph.neighbors(u)
        if u < v
    )


def random_batch(graph: Graph, rng: random.Random, n_ins=3, n_dels=3):
    """A random, valid (inserts, deletes) pair for ``graph``."""
    present = edges_of(graph)
    absent = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.has_edge(u, v)
    ]
    deletes = rng.sample(present, min(n_dels, len(present)))
    inserts = rng.sample(absent, min(n_ins, len(absent)))
    return inserts, deletes


def blocks_graph(n_blocks=40, bs=30, p=0.9, cross=300, seed=2) -> Graph:
    """Dense same-size blocks plus random cross edges (deep SCT trees)."""
    rng = random.Random(seed)
    n = n_blocks * bs
    edges = set()
    for b in range(n_blocks):
        base = b * bs
        for i in range(bs):
            for j in range(i + 1, bs):
                if rng.random() < p:
                    edges.add((base + i, base + j))
    added = 0
    while added < cross:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            added += 1
    return Graph(n, sorted(edges))


class TestEdgeBatchValidation:
    def test_insert_existing_edge_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="already"):
            apply_edge_updates(g, inserts=[(0, 1)])

    def test_delete_missing_edge_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="not present"):
            apply_edge_updates(g, deletes=[(1, 2)])

    def test_self_loop_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="self-loop"):
            apply_edge_updates(g, inserts=[(2, 2)])

    def test_out_of_range_vertex_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="out of range"):
            apply_edge_updates(g, inserts=[(0, 7)])

    def test_edge_in_both_batches_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="both"):
            apply_edge_updates(g, inserts=[(1, 2)], deletes=[(2, 1)])

    def test_malformed_pair_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="pairs"):
            apply_edge_updates(g, inserts=["nope"])

    def test_inputs_left_untouched(self):
        g = gnp_graph(12, 0.4, seed=5)
        before = edges_of(g)
        updated, ins, dels = apply_edge_updates(
            g, inserts=[(0, 11)] if not g.has_edge(0, 11) else [],
            deletes=[before[0]],
        )
        assert edges_of(g) == before  # the input graph is immutable
        assert updated is not g
        assert updated.m == g.m + len(ins) - len(dels)


class TestParity:
    """The incremental index must be byte-identical to a fresh build."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        g = gnp_graph(40, 0.25, seed=seed)
        index = SCTIndex.build(g)
        inserts, deletes = random_batch(g, rng)
        region = compute_update(index, g, inserts, deletes)
        fresh_graph, _, _ = apply_edge_updates(g, inserts, deletes)
        assert edges_of(region.graph) == edges_of(fresh_graph)
        assert index_bytes(region.index) == index_bytes(
            SCTIndex.build(fresh_graph)
        )

    def test_update_sequence_stays_exact(self):
        rng = random.Random(77)
        g = gnp_graph(60, 0.2, seed=9)
        index = SCTIndex.build(g)
        for _ in range(10):
            inserts, deletes = random_batch(g, rng, n_ins=2, n_dels=2)
            region = compute_update(index, g, inserts, deletes)
            g, index = region.graph, region.index
        assert index_bytes(index) == index_bytes(SCTIndex.build(g))

    def test_threshold_index_parity(self):
        rng = random.Random(4)
        g = gnp_graph(36, 0.35, seed=4)
        index = SCTIndex.build(g, threshold=4)
        inserts, deletes = random_batch(g, rng)
        region = compute_update(index, g, inserts, deletes)
        fresh_graph, _, _ = apply_edge_updates(g, inserts, deletes)
        assert region.index.threshold == 4
        assert index_bytes(region.index) == index_bytes(
            SCTIndex.build(fresh_graph, threshold=4)
        )

    def test_tiny_graphs(self):
        g = Graph(2, [])
        index = SCTIndex.build(g)
        region = compute_update(index, g, inserts=[(0, 1)])
        assert index_bytes(region.index) == index_bytes(
            SCTIndex.build(Graph(2, [(0, 1)]))
        )
        back = compute_update(region.index, region.graph, deletes=[(0, 1)])
        assert index_bytes(back.index) == index_bytes(index)

    def test_empty_batch_is_identity(self):
        g = gnp_graph(20, 0.3, seed=1)
        index = SCTIndex.build(g)
        region = compute_update(index, g)
        assert region.dirty_roots == 0
        assert region.dirty_vertices == frozenset()
        assert index_bytes(region.index) == index_bytes(index)

    def test_compute_update_leaves_inputs_untouched(self):
        g = gnp_graph(30, 0.3, seed=8)
        index = SCTIndex.build(g)
        graph_before = edges_of(g)
        index_before = index_bytes(index)
        inserts, deletes = random_batch(g, random.Random(8))
        compute_update(index, g, inserts, deletes)
        assert edges_of(g) == graph_before
        assert index_bytes(index) == index_before

    def test_deep_clique_graph_serial_and_parallel(self):
        """Table-2 scale: 1200 vertices of dense blocks, workers=4."""
        g = blocks_graph(n_blocks=40, bs=30, p=0.9, cross=300, seed=2)
        index = SCTIndex.build(g)
        u, v = next(iter(edges_of(g)))
        region = compute_update(index, g, deletes=[(u, v)])
        serial = SCTIndex.build(region.graph)
        assert index_bytes(region.index) == index_bytes(serial)
        parallel = SCTIndex.build(
            region.graph, options=RunOptions(parallel=4)
        )
        assert index_bytes(region.index) == index_bytes(parallel)


class TestDirtyRegion:
    def test_summary_and_accounting(self):
        g = gnp_graph(40, 0.25, seed=3)
        index = SCTIndex.build(g)
        inserts, deletes = random_batch(g, random.Random(3))
        recorder = MetricsRecorder()
        region = compute_update(
            index, g, inserts, deletes,
            options=RunOptions(recorder=recorder),
        )
        assert isinstance(region, DirtyRegion)
        summary = region.summary()
        assert summary["inserts"] == len(inserts)
        assert summary["deletes"] == len(deletes)
        assert region.dirty_roots + region.reused_roots <= region.n_roots
        assert 0.0 <= region.dirty_fraction <= 1.0
        counters = recorder.counters
        assert counters["update/edges_inserted"] == len(inserts)
        assert counters["update/edges_deleted"] == len(deletes)
        assert counters["update/dirty_roots"] == region.dirty_roots

    def test_intersects(self):
        g = gnp_graph(30, 0.3, seed=6)
        index = SCTIndex.build(g)
        u, v = edges_of(g)[0]
        region = compute_update(index, g, deletes=[(u, v)])
        assert region.intersects([u])
        assert region.intersects([v])
        clean = [x for x in range(g.n) if x not in region.dirty_vertices]
        if clean:
            assert not region.intersects(clean[:1])
        assert not region.intersects([])

    def test_update_edges_always_dirty(self):
        g = gnp_graph(30, 0.3, seed=2)
        index = SCTIndex.build(g)
        inserts, deletes = random_batch(g, random.Random(11))
        region = compute_update(index, g, inserts, deletes)
        for u, v in list(inserts) + list(deletes):
            assert u in region.dirty_vertices
            assert v in region.dirty_vertices


class TestBudget:
    def test_exhaustion_raises_and_preserves_inputs(self):
        g = blocks_graph(n_blocks=10, bs=16, p=0.8, cross=40, seed=1)
        index = SCTIndex.build(g)
        before = index_bytes(index)
        u, v = edges_of(g)[0]
        budget = RunBudget(wall_seconds=0.0)
        with pytest.raises(BudgetExhausted):
            compute_update(
                index, g, deletes=[(u, v)],
                options=RunOptions(budget=budget),
            )
        assert index_bytes(index) == before
        # and the same call without the budget still commits cleanly
        region = compute_update(index, g, deletes=[(u, v)])
        assert index_bytes(region.index) == index_bytes(
            SCTIndex.build(region.graph)
        )


class TestIncrementalityIsReal:
    def test_single_edge_update_beats_full_rebuild(self):
        """Lenient floor (the bench asserts the paper-scale 10x)."""
        g = blocks_graph(n_blocks=24, bs=24, p=0.9, cross=150, seed=5)
        t0 = time.perf_counter()
        index = SCTIndex.build(g)
        full_s = time.perf_counter() - t0
        u, v = edges_of(g)[0]
        # steady state: the first update pays the one-off view build
        region = compute_update(index, g, deletes=[(u, v)])
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            back = compute_update(
                region.index, region.graph, inserts=[(u, v)]
            )
            timings.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            region = compute_update(
                back.index, back.graph, deletes=[(u, v)]
            )
            timings.append(time.perf_counter() - t0)
        update_s = sorted(timings)[len(timings) // 2]
        assert update_s * 3 < full_s, (
            f"incremental update {update_s:.4f}s vs full build {full_s:.4f}s"
        )
        assert region.dirty_fraction < 0.5


class TestWarmStart:
    @pytest.fixture(scope="class")
    def community_index(self):
        return SCTIndex.build(
            overlapping_community_graph(600, 40, 20, 0.55, memberships=2, seed=1)
        )

    def test_zero_seed_matches_cold_start(self):
        g = relaxed_caveman_graph(6, 6, 0.1, seed=2)
        index = SCTIndex.build(g)
        cold = sctl(index, 3, iterations=6)
        seeded = sctl(index, 3, iterations=6, warm_start=[0] * g.n)
        assert seeded.vertices == cold.vertices
        assert seeded.stats["weights"] == cold.stats["weights"]

    @pytest.mark.parametrize("fn", [sctl, sctl_star, sctl_plus])
    def test_validation(self, fn):
        g = relaxed_caveman_graph(4, 5, 0.1, seed=1)
        index = SCTIndex.build(g)
        kwargs = {"graph": g} if fn is not sctl else {}
        with pytest.raises(InvalidParameterError, match="warm_start"):
            fn(index, 3, warm_start=[0] * (g.n + 1), **kwargs)
        with pytest.raises(InvalidParameterError, match="non-negative"):
            fn(index, 3, warm_start=[-1] + [0] * (g.n - 1), **kwargs)

    @pytest.mark.parametrize("fn", [sctl, sctl_star, sctl_plus])
    @pytest.mark.parametrize(
        "seed", [[1, 2], [-1] * 5], ids=["wrong-length", "negative"]
    )
    def test_checked_on_an_empty_query(self, fn, seed):
        # no path at k=3, so no round would ever read the seed
        index = SCTIndex.build(Graph(5))
        rec = MetricsRecorder()
        with pytest.raises(InvalidParameterError, match="warm_start"):
            fn(index, 3, warm_start=seed, options=RunOptions(recorder=rec))
        assert "refine/path_table" not in rec.span_totals()

    @pytest.mark.parametrize("fn", [sctl, sctl_star, sctl_plus])
    def test_checked_before_the_path_table(self, community_index, fn):
        rec = MetricsRecorder()
        with pytest.raises(InvalidParameterError, match="warm_start"):
            fn(community_index, 5, warm_start=[0] * 3,
               options=RunOptions(recorder=rec))
        assert "refine/path_table" not in rec.span_totals()

    def test_reseeding_after_update_converges_no_worse(self):
        g = gnp_graph(40, 0.3, seed=7)
        index = SCTIndex.build(g)
        first = sctl_star(index, 3, iterations=8, graph=g)
        u, v = edges_of(g)[0]
        region = compute_update(index, g, deletes=[(u, v)])
        cold = sctl_star(region.index, 3, iterations=8, graph=region.graph)
        warm = sctl_star(
            region.index, 3, iterations=8, graph=region.graph,
            warm_start=first.stats["weights"],
        )
        assert warm.density >= cold.density - 1e-9

    def test_facade_parity_with_updated_index(self):
        """The updated index answers queries exactly like a fresh one."""
        g = gnp_graph(45, 0.25, seed=10)
        index = SCTIndex.build(g)
        inserts, deletes = random_batch(g, random.Random(10))
        region = compute_update(index, g, inserts, deletes)
        via_update = densest_subgraph(
            region.graph, 3, method="sctl*", index=region.index
        )
        fresh = densest_subgraph(region.graph, 3, method="sctl*")
        assert via_update.vertices == fresh.vertices
        assert via_update.density == fresh.density
