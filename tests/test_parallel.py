"""repro.parallel: byte-for-byte parity with serial across worker counts."""

import io
import pickle
from multiprocessing import shared_memory

import pytest

from repro import (
    MetricsRecorder,
    ParallelConfig,
    RunOptions,
    densest_subgraph,
)
from repro.core import SCTIndex, sctl, sctl_plus, sctl_star
from repro.core.sampling import sctl_star_sample
from repro.core.exact import sctl_star_exact
from repro.errors import BudgetExhausted
from repro.graph import Graph, gnp_graph, relaxed_caveman_graph
from repro.obs.validate import validate_metrics, validate_trace_lines
from repro.parallel.engine import (
    PathShardEngine,
    _attach_index,
    _quantile_cuts,
    _release_shm,
    _root_chunks,
    _share_index,
)
from repro.resilience import Checkpointer, RunBudget

from .index_files import v2_bytes

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def graphs():
    return {
        "caveman": relaxed_caveman_graph(8, 6, 0.1, seed=7),
        "gnp": gnp_graph(40, 0.25, seed=11),
        "k6+k4": Graph(
            10,
            [(i, j) for i in range(6) for j in range(i + 1, 6)]
            + [(i, j) for i in range(6, 10) for j in range(i + 1, 10)]
            + [(5, 6)],
        ),
    }


class TestQuantileCuts:
    def test_partitions_cover_range(self):
        sizes = [3, 1, 4, 1, 5, 9, 2, 6]
        cuts = _quantile_cuts(sizes, 3)
        assert cuts[0][0] == 0
        assert cuts[-1][1] == len(sizes)
        for (_, a_hi), (b_lo, _) in zip(cuts, cuts[1:]):
            assert a_hi == b_lo

    def test_single_chunk(self):
        assert _quantile_cuts([1, 1], 1) == [(0, 2)]

    def test_empty(self):
        assert _quantile_cuts([], 4) == []


class TestParallelBuild:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_build_byte_identical(self, graphs, workers):
        for graph in graphs.values():
            serial = SCTIndex.build(graph)
            parallel = SCTIndex.build(
                graph, options=RunOptions(parallel=workers)
            )
            assert v2_bytes(serial) == v2_bytes(parallel)

    def test_build_with_threshold_byte_identical(self, graphs):
        graph = graphs["caveman"]
        serial = SCTIndex.build(graph, threshold=4)
        parallel = SCTIndex.build(
            graph, threshold=4, options=RunOptions(parallel=3)
        )
        assert v2_bytes(serial) == v2_bytes(parallel)

    def test_more_workers_than_roots(self):
        graph = Graph.complete(4)
        serial = SCTIndex.build(graph)
        parallel = SCTIndex.build(graph, options=RunOptions(parallel=4))
        assert v2_bytes(serial) == v2_bytes(parallel)

    def test_empty_graph(self):
        graph = Graph(3, [])
        sharded = SCTIndex.build(graph, options=RunOptions(parallel=2))
        assert v2_bytes(sharded) == v2_bytes(SCTIndex.build(graph))

    def test_build_accepts_config(self, graphs):
        cfg = ParallelConfig(workers=2, chunks_per_worker=2)
        graph = graphs["gnp"]
        sharded = SCTIndex.build(graph, options=RunOptions(parallel=cfg))
        assert v2_bytes(sharded) == v2_bytes(SCTIndex.build(graph))


class TestParallelSweeps:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_iter_paths_order_identical(self, graphs, workers):
        graph = graphs["caveman"]
        index = SCTIndex.build(graph)
        for k in (3, 4):
            serial = [(p.holds, p.pivots) for p in index.iter_paths(k)]
            sharded = [
                (p.holds, p.pivots)
                for p in index.iter_paths(
                    k, options=RunOptions(parallel=workers)
                )
            ]
            assert serial == sharded

    def test_counting_parity(self, graphs):
        graph = graphs["gnp"]
        index = SCTIndex.build(graph)
        opts = RunOptions(parallel=2)
        for k in (3, 4, 5):
            assert index.count_k_cliques(k, options=opts) == \
                index.count_k_cliques(k)
            assert index.per_vertex_counts(k, options=opts) == \
                index.per_vertex_counts(k)

    def test_engine_reuse_and_close_idempotent(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        engine = PathShardEngine(index, ParallelConfig(workers=2))
        try:
            first = engine.count_cliques(3)
            again = engine.count_cliques(3)
            assert first == again
        finally:
            engine.close()
            engine.close()  # second close is a no-op


class TestParallelRefinement:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_algorithms_byte_identical(self, graphs, workers):
        for graph in graphs.values():
            index = SCTIndex.build(graph)
            for k in (3, 4):
                for fn, kwargs in (
                    (sctl, {}),
                    (sctl_plus, {"graph": graph}),
                    (sctl_star, {"graph": graph}),
                ):
                    serial = fn(index, k, iterations=4, **kwargs)
                    sharded = fn(
                        index, k, iterations=4,
                        options=RunOptions(parallel=workers), **kwargs
                    )
                    assert serial.vertices == sharded.vertices
                    assert serial.clique_count == sharded.clique_count
                    assert serial.upper_bound == sharded.upper_bound
                    assert serial.stats["weights"] == sharded.stats["weights"]

    def test_sample_byte_identical(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        serial = sctl_star_sample(index, 3, sample_size=40, seed=3)
        sharded = sctl_star_sample(
            index, 3, sample_size=40, seed=3, options=RunOptions(parallel=2)
        )
        assert serial.vertices == sharded.vertices
        assert serial.clique_count == sharded.clique_count

    def test_exact_identical(self, graphs):
        graph = graphs["k6+k4"]
        serial = sctl_star_exact(graph, 3, sample_size=50, iterations=3)
        sharded = sctl_star_exact(
            graph, 3, sample_size=50, iterations=3,
            options=RunOptions(parallel=2),
        )
        assert serial.vertices == sharded.vertices
        assert serial.exact and sharded.exact
        assert serial.clique_count == sharded.clique_count

    @pytest.mark.parametrize(
        "method", ["sctl", "sctl+", "sctl*", "sctl*-sample"]
    )
    def test_facade_parity(self, graphs, method):
        graph = graphs["caveman"]
        serial = densest_subgraph(graph, 3, method=method, iterations=3,
                                  sample_size=40)
        sharded = densest_subgraph(graph, 3, method=method, iterations=3,
                                   sample_size=40,
                                   options=RunOptions(parallel=2))
        assert serial.vertices == sharded.vertices
        assert serial.clique_count == sharded.clique_count

    def test_workers_one_uses_no_pool(self, graphs):
        # ParallelConfig(workers=1) is documented as literally-serial
        index = SCTIndex.build(graphs["caveman"])
        result = sctl_star(
            index, 3, iterations=2, options=RunOptions(parallel=1)
        )
        assert result.vertices == sctl_star(index, 3, iterations=2).vertices


class TestParallelBudget:
    def test_exhausted_before_refinement_is_well_formed(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        serial = sctl_star(
            index, 3, iterations=5,
            options=RunOptions(budget=RunBudget(wall_seconds=0)),
        )
        sharded = sctl_star(
            index, 3, iterations=5,
            options=RunOptions(budget=RunBudget(wall_seconds=0), parallel=2),
        )
        for result in (serial, sharded):
            assert result.is_partial
            assert result.iterations == 0
            assert result.reason
            assert result.stage
        assert serial.vertices == sharded.vertices
        assert serial.valid == sharded.valid
        assert serial.stats["weights"] == sharded.stats["weights"]

    def test_partial_matches_serial_partial(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        serial = sctl_star(
            index, 3, iterations=5,
            options=RunOptions(budget=RunBudget(max_iterations=2)),
        )
        sharded = sctl_star(
            index, 3, iterations=5,
            options=RunOptions(
                budget=RunBudget(max_iterations=2), parallel=2
            ),
        )
        assert serial.is_partial and sharded.is_partial
        assert serial.valid and sharded.valid
        assert serial.iterations == sharded.iterations == 2
        assert serial.vertices == sharded.vertices
        assert serial.stats["weights"] == sharded.stats["weights"]

    def test_facade_build_exhaustion_under_parallel(self, graphs):
        result = densest_subgraph(
            graphs["caveman"], 3, method="sctl*",
            options=RunOptions(budget=RunBudget(wall_seconds=0), parallel=2),
        )
        assert result.is_partial
        assert not result.valid
        assert result.stage == "index/build"


class TestCheckpointInterop:
    def test_serial_checkpoint_resumed_by_parallel_build(self, tmp_path):
        graph = relaxed_caveman_graph(10, 8, 0.08, seed=2)
        clean = SCTIndex.build(graph)
        ckpt_dir = tmp_path / "ck"
        calls = [0.0]

        def clock():
            calls[0] += 1.0
            return calls[0]

        budget = RunBudget(wall_seconds=1.5, clock=clock)
        try:
            SCTIndex.build(
                graph,
                options=RunOptions(budget=budget, checkpoint=str(ckpt_dir)),
            )
        except BudgetExhausted:
            pass
        resumed = SCTIndex.build(
            graph,
            options=RunOptions(
                checkpoint=str(ckpt_dir), resume=True, parallel=2
            ),
        )
        assert v2_bytes(resumed) == v2_bytes(clean)

    def test_parallel_checkpoint_resumed_by_serial_build(self, tmp_path):
        graph = relaxed_caveman_graph(8, 6, 0.1, seed=7)
        clean = SCTIndex.build(graph)
        ckpt_dir = tmp_path / "ck"
        with pytest.raises(BudgetExhausted):
            SCTIndex.build(
                graph,
                options=RunOptions(
                    budget=RunBudget(wall_seconds=0),
                    checkpoint=str(ckpt_dir), parallel=2,
                ),
            )
        assert Checkpointer(str(ckpt_dir)).load("sct-build") is not None
        resumed = SCTIndex.build(
            graph, options=RunOptions(checkpoint=str(ckpt_dir), resume=True)
        )
        assert v2_bytes(resumed) == v2_bytes(clean)


class TestObservabilityComposition:
    def test_trace_stays_valid_with_workers(self, graphs, tmp_path):
        graph = graphs["caveman"]
        sink = io.StringIO()
        recorder = MetricsRecorder(sink=sink)
        opts = RunOptions(recorder=recorder, parallel=2)
        index = SCTIndex.build(graph, options=opts)
        sctl_star(index, 3, iterations=2, options=opts)
        lines = sink.getvalue().splitlines()
        assert validate_trace_lines(lines) == []
        assert validate_metrics(recorder.snapshot()) == []
        assert recorder.counters.get("parallel/build_chunks")

    def test_counters_match_serial(self, graphs):
        graph = graphs["caveman"]
        index = SCTIndex.build(graph)
        rec_serial, rec_parallel = MetricsRecorder(), MetricsRecorder()
        sctl_star(
            index, 3, iterations=3, options=RunOptions(recorder=rec_serial)
        )
        sctl_star(
            index, 3, iterations=3,
            options=RunOptions(recorder=rec_parallel, parallel=2),
        )
        for key in (
            "refine/iterations",
            "refine/paths_swept",
            "refine/cliques_processed",
            "refine/weight_updates",
        ):
            assert rec_serial.counters.get(key) == \
                rec_parallel.counters.get(key), key

    def test_absorb_merges_and_nests(self):
        inner = MetricsRecorder()
        inner.counter("x", 3)
        inner.gauge("g", 7)
        with inner.span("work"):
            pass
        sink = io.StringIO()
        outer = MetricsRecorder(sink=sink)
        outer.counter("x", 1)
        with outer.span("top"):
            outer.absorb(inner.snapshot(), prefix="worker")
        assert outer.counters["x"] == 4
        assert outer.gauges["g"] == 7
        assert any(r.path == "top/worker/work" for r in outer.spans)
        assert validate_trace_lines(sink.getvalue().splitlines()) == []


class TestSharedMemoryBroadcast:
    """The index crosses the process boundary once, via shared memory.

    The engine used to pickle the whole column state into every worker's
    initializer; these tests pin the replacement — a few-hundred-byte
    metadata tuple plus one kernel-shared block.
    """

    def test_meta_pickles_small(self, graphs):
        index = SCTIndex.build(graphs["gnp"])
        shm, meta = _share_index(index)
        try:
            meta_bytes = len(pickle.dumps(meta))
            assert meta_bytes < 2048
            # the columns themselves dwarf the broadcast metadata
            assert shm.size > 10 * meta_bytes
        finally:
            shm.close()
            shm.unlink()

    def test_attached_index_is_zero_copy_and_correct(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        shm, meta = _share_index(index)
        attached, attached_shm = _attach_index(meta)
        try:
            assert attached.backing == "shared_memory"
            assert v2_bytes(attached) == v2_bytes(index)
        finally:
            attached.close()
            try:
                attached_shm.close()
            except BufferError:
                pass
            _release_shm(shm)

    def test_engine_records_one_broadcast(self, graphs):
        index = SCTIndex.build(graphs["gnp"])
        recorder = MetricsRecorder()
        with PathShardEngine(
            index, ParallelConfig(workers=2), recorder=recorder
        ) as engine:
            first = engine.count_cliques(3)
            again = engine.count_cliques(4)
            assert first and again
            assert recorder.gauges["parallel/broadcast_mode"] == \
                "shared_memory"
            # one pool, one copy: the counter totals a single block, even
            # across repeated sweeps and multiple workers
            assert recorder.counters["parallel/broadcast_bytes"] == \
                engine._shm.size

    def test_close_unlinks_broadcast_block(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        engine = PathShardEngine(index, ParallelConfig(workers=2))
        engine.count_cliques(3)
        name = engine._shm.name
        engine.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestRootChunking:
    def test_chunks_weighted_by_exact_subtree_sizes(self, graphs):
        index = SCTIndex.build(graphs["gnp"])
        recorder = MetricsRecorder()
        chunks = _root_chunks(index, 4, recorder)
        roots = index._root_ids()
        # contiguous cover of the root positions, in order
        assert chunks[0][0] == 0
        assert chunks[-1][1] == len(roots)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        # healthy index: the exact-size path, no fallback recorded
        assert "parallel/chunking-fallback" not in recorder.counters
        sizes = [index._subtree[r] for r in roots]
        heaviest = max(sum(sizes[lo:hi]) for lo, hi in chunks)
        assert heaviest < sum(sizes)  # actually split by weight

    def test_fallback_counter_on_corrupt_sizes(self, graphs):
        index = SCTIndex.build(graphs["caveman"])
        index._subtree[index._root_ids()[0]] = 0  # simulate corruption
        recorder = MetricsRecorder()
        chunks = _root_chunks(index, 2, recorder)
        assert recorder.counters["parallel/chunking-fallback"] == 1
        assert recorder.counters["events/chunking_fallback"] == 1
        assert chunks[0][0] == 0
        assert chunks[-1][1] == len(index._root_ids())
