"""The observability layer: recorders, traces, and pipeline metrics."""

import io
import json

import pytest

from repro import RunOptions, densest_subgraph
from repro.core import (
    SCTIndex,
    batch_update,
    sctl,
    sctl_star,
    sctl_star_exact,
    sctl_star_sample,
)
from repro.graph import Graph, gnp_graph
from repro.obs import (
    MetricsRecorder,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    validate_metrics,
    validate_trace_lines,
)


@pytest.fixture
def graph() -> Graph:
    return gnp_graph(30, 0.4, seed=2)


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.counter("x", 5)
        NULL_RECORDER.gauge("y", 1.0)
        NULL_RECORDER.event("z", detail="ignored")
        with NULL_RECORDER.span("phase"):
            pass

    def test_span_is_shared_singleton(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")

    def test_satisfies_protocol(self):
        assert isinstance(NullRecorder(), Recorder)
        assert isinstance(MetricsRecorder(), Recorder)


class TestMetricsRecorder:
    def test_counters_accumulate(self):
        rec = MetricsRecorder()
        rec.counter("hits")
        rec.counter("hits", 4)
        assert rec.counters == {"hits": 5}

    def test_gauges_last_write_wins(self):
        rec = MetricsRecorder()
        rec.gauge("density", 0.5)
        rec.gauge("density", 0.75)
        assert rec.gauges == {"density": 0.75}

    def test_observe_collects_into_histograms(self):
        rec = MetricsRecorder()
        rec.observe("latency", 0.002)
        rec.observe("latency", 0.004)
        assert rec.histograms["latency"].count == 2
        assert rec.quantile("latency", 0.5) is not None
        assert rec.quantile("missing", 0.5) is None

    def test_span_observe_records_elapsed_into_histogram(self):
        clock = iter([0.0, 0.0, 3.0, 3.0])
        rec = MetricsRecorder(clock=lambda: next(clock))
        with rec.span("index/build", observe="stage/index_build"):
            pass
        hist = rec.histograms["stage/index_build"]
        assert hist.count == 1
        assert hist.total == pytest.approx(3.0)

    def test_event_bumps_aggregate_counter(self):
        rec = MetricsRecorder()
        rec.event("refine_iteration", density=0.5)
        rec.event("refine_iteration", density=0.6)
        rec.event("checkpoint")
        assert rec.counters["events/refine_iteration"] == 2
        assert rec.counters["events/checkpoint"] == 1
        # the bump is aggregate-only: with a sink, event() still emits
        # exactly one trace line per call (see test_events_are_valid_jsonl)

    def test_spans_nest_with_slash_paths(self):
        rec = MetricsRecorder()
        with rec.span("exact"):
            assert rec.current_span == "exact"
            with rec.span("flow_round/1"):
                assert rec.current_span == "exact/flow_round/1"
        assert rec.current_span == ""
        assert [s.path for s in rec.spans] == ["exact/flow_round/1", "exact"]

    def test_span_totals_and_prefix_sum(self):
        clock = iter(range(100))
        rec = MetricsRecorder(clock=lambda: float(next(clock)))
        for _ in range(2):
            with rec.span("exact"):
                with rec.span("flow_round"):
                    pass
        totals = rec.span_totals()
        assert totals["exact/flow_round"][0] == 2
        assert rec.span_seconds("exact") == pytest.approx(
            sum(s.seconds for s in rec.spans if s.path.startswith("exact"))
        )

    def test_snapshot_shape(self):
        rec = MetricsRecorder()
        rec.counter("a", 2)
        rec.gauge("b", 1.5)
        with rec.span("s"):
            pass
        snap = rec.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 1.5}
        assert snap["spans"][0]["span"] == "s"
        assert validate_metrics(snap) == []
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_write_json(self, tmp_path):
        rec = MetricsRecorder()
        rec.counter("a")
        out = tmp_path / "metrics.json"
        rec.write_json(out)
        payload = json.loads(out.read_text())
        assert payload["counters"] == {"a": 1}
        assert validate_metrics(payload) == []

    def test_fraction_gauges_become_floats(self):
        from fractions import Fraction

        rec = MetricsRecorder()
        rec.gauge("density", Fraction(3, 4))
        assert rec.snapshot()["gauges"]["density"] == 0.75


class TestTraceSink:
    def test_events_are_valid_jsonl(self):
        sink = io.StringIO()
        rec = MetricsRecorder(sink=sink)
        with rec.span("build"):
            rec.counter("nodes", 7)
            rec.gauge("depth", 3)
        rec.event("done", ok=True)
        lines = sink.getvalue().splitlines()
        assert validate_trace_lines(lines) == []
        events = [json.loads(line)["event"] for line in lines]
        assert events == ["span_start", "counter", "gauge", "span_end", "point"]

    def test_counter_line_carries_running_total(self):
        sink = io.StringIO()
        rec = MetricsRecorder(sink=sink)
        rec.counter("n", 2)
        rec.counter("n", 3)
        payloads = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [p["delta"] for p in payloads] == [2, 3]
        assert [p["value"] for p in payloads] == [2, 5]

    def test_validator_rejects_unbalanced_spans(self):
        lines = [json.dumps({"event": "span_start", "span": "a", "t": 0.0})]
        assert validate_trace_lines(lines)

    def test_validator_rejects_time_travel(self):
        lines = [
            json.dumps({"event": "counter", "name": "n", "delta": 1,
                        "value": 1, "t": 2.0}),
            json.dumps({"event": "counter", "name": "n", "delta": 1,
                        "value": 2, "t": 1.0}),
        ]
        assert validate_trace_lines(lines)

    def test_validator_rejects_empty_trace(self):
        assert validate_trace_lines([])


class TestIndexBuildMetrics:
    def test_build_counters_match_index(self, graph):
        rec = MetricsRecorder()
        index = SCTIndex.build(graph, options=RunOptions(recorder=rec))
        assert rec.counters["build/nodes"] == (
            rec.counters["build/holds"] + rec.counters["build/pivots"]
        )
        assert rec.counters["build/nodes"] > 0
        assert rec.gauges["build/max_depth"] == index.max_clique_size
        paths = rec.span_totals()
        assert "index/build" in paths
        assert "index/build/ordered_view" in paths
        assert "index/build/expand" in paths
        assert "index/build/finalize" in paths

    def test_parallel_build_has_the_same_spans(self, graph):
        from repro.parallel import ParallelConfig

        rec = MetricsRecorder()
        options = RunOptions(recorder=rec, parallel=ParallelConfig(workers=2))
        SCTIndex.build(graph, options=options)
        paths = rec.span_totals()
        for child in ("ordered_view", "expand", "finalize"):
            assert f"index/build/{child}" in paths

    def test_iter_paths_counts(self, graph):
        index = SCTIndex.build(graph)
        rec = MetricsRecorder()
        expected = sum(1 for _ in index.iter_paths())
        walked = index.iter_paths(options=RunOptions(recorder=rec))
        assert sum(1 for _ in walked) == expected
        assert rec.counters["paths/yielded"] == expected

    def test_iter_paths_flushes_on_early_close(self, graph):
        index = SCTIndex.build(graph)
        rec = MetricsRecorder()
        it = index.iter_paths(options=RunOptions(recorder=rec))
        next(it)
        it.close()
        assert rec.counters["paths/yielded"] == 1


class TestPipelineMetrics:
    def test_sctl_star_iteration_metrics(self, graph):
        index = SCTIndex.build(graph)
        rec = MetricsRecorder()
        sctl_star(index, 3, iterations=4, options=RunOptions(recorder=rec))
        assert rec.counters["refine/iterations"] == 4
        assert rec.counters["refine/cliques_processed"] > 0
        assert rec.counters["refine/weight_updates"] > 0
        assert rec.gauges["refine/density"] > 0
        totals = rec.span_totals()
        for t in range(1, 5):
            assert f"refine/iteration/{t}" in totals

    def test_path_table_span_and_counters(self, graph):
        index = SCTIndex.build(graph)
        rec = MetricsRecorder()
        sctl_star(index, 3, iterations=2, options=RunOptions(recorder=rec))
        assert "refine/path_table" in rec.span_totals()
        paths = index.collect_paths(3)
        assert rec.counters["refine/path_table_rows"] == len(paths)
        assert rec.counters["refine/path_table_entries"] == sum(
            len(p) + 2 for p in paths
        )
        assert "refine/path_table_streamed" not in rec.counters

    def test_streamed_path_table_is_counted_and_logged(self):
        # K_{14x2} at k=14: the table would outgrow the index, so the
        # query streams — a degradation with a counter and an event
        edges = [
            (u, v) for u in range(28) for v in range(u + 1, 28)
            if u // 2 != v // 2
        ]
        index = SCTIndex.build(Graph.from_edges(edges))
        sink = io.StringIO()
        rec = MetricsRecorder(sink=sink)
        sctl(index, 14, iterations=1, options=RunOptions(recorder=rec))
        assert rec.counters["refine/path_table_streamed"] == 1
        assert "refine/path_table_rows" not in rec.counters
        events = [
            json.loads(line) for line in sink.getvalue().splitlines()
            if '"path_table_streamed"' in line
        ]
        # 16 entries a row (14 vertices, a start and a hold count): the
        # 14,415th row is the first past the cap of 230,637
        assert [e["fields"] for e in events] == [
            {"k": 14, "entries": 16 * 14415, "cap": 7 * index.n_tree_nodes + 1}
        ]
        assert validate_trace_lines(sink.getvalue().splitlines()) == []

    def test_sctl_iteration_metrics(self, graph):
        index = SCTIndex.build(graph)
        rec = MetricsRecorder()
        sctl(index, 3, iterations=3, options=RunOptions(recorder=rec))
        assert rec.counters["refine/iterations"] == 3
        assert (
            rec.counters["refine/weight_updates"]
            == rec.counters["refine/cliques_processed"]
        )

    def test_batch_update_metrics(self):
        rec = MetricsRecorder()
        weights = [0, 0, 0, 0]
        # holds {0,1} + pivots {2,3}, k=3: C(2,1) = 2 cliques on the path
        batch_update(weights, [0, 1], [2, 3], 3, recorder=rec)
        assert rec.counters["batch/calls"] == 1
        assert rec.counters["batch/cliques"] == 2
        assert rec.counters["batch/weight_updates"] > 0

    def test_sampling_metrics(self, graph):
        index = SCTIndex.build(graph)
        rec = MetricsRecorder()
        sctl_star_sample(index, 3, sample_size=200, iterations=3,
                         seed=0, options=RunOptions(recorder=rec))
        assert rec.counters["sample/cliques_drawn"] > 0
        assert "sample/sample_density" in rec.gauges
        totals = rec.span_totals()
        assert "sample/refine" in totals
        assert "sample/recover" in totals

    def test_exact_full_pipeline_spans(self, graph):
        sink = io.StringIO()
        rec = MetricsRecorder(sink=sink)
        result = sctl_star_exact(graph, 3, sample_size=200, iterations=4,
                                 seed=0, options=RunOptions(recorder=rec))
        # the acceptance criterion: build, reduction, refinement and
        # flow-round phases all present with non-zero counters
        paths = set(rec.iter_span_paths())
        assert any("index/build" in p for p in paths)
        assert any(p.startswith("exact/scope_reduction") for p in paths)
        assert any("refine/iteration" in p for p in paths)
        assert any("exact/flow_round" in p for p in paths)
        assert rec.counters["build/nodes"] > 0
        assert rec.counters["refine/iterations"] > 0
        assert rec.counters["exact/flow_rounds"] >= 1
        assert rec.counters["exact/scope_vertices"] > 0
        # the peel removes vertices after the first Lemma 4 cut, which
        # count among those dropped; a one-pass peel has no rounds
        assert 0 <= rec.counters["exact/peeled_vertices"] <= (
            rec.counters["exact/vertices_dropped"]
        )
        assert "exact/fixed_point_rounds" not in rec.counters
        assert rec.gauges["exact/density"] == pytest.approx(
            float(result.density_fraction)
        )
        assert validate_trace_lines(sink.getvalue().splitlines()) == []

    def test_facade_threads_recorder(self, graph):
        rec = MetricsRecorder()
        densest_subgraph(
            graph, 3, method="sctl*", iterations=3,
            options=RunOptions(recorder=rec),
        )
        assert rec.counters["build/nodes"] > 0
        assert rec.counters["refine/iterations"] == 3


class TestRecorderParity:
    """With the default recorder the library behaves byte-identically."""

    METHODS = ["sctl", "sctl+", "sctl*", "sctl*-sample", "sctl*-exact"]

    @pytest.mark.parametrize("method", METHODS)
    def test_results_identical_with_and_without_recorder(self, graph, method):
        kwargs = {"iterations": 4}
        if method in ("sctl*-sample", "sctl*-exact"):
            kwargs.update(sample_size=200, seed=0)
        plain = densest_subgraph(graph, 3, method=method, **kwargs)
        recorded = densest_subgraph(
            graph, 3, method=method,
            options=RunOptions(recorder=MetricsRecorder()), **kwargs
        )
        assert plain == recorded

    def test_null_recorder_equivalent_to_omitting(self, graph):
        a = densest_subgraph(graph, 3, method="sctl*", iterations=3)
        b = densest_subgraph(
            graph, 3, method="sctl*", iterations=3,
            options=RunOptions(recorder=NULL_RECORDER),
        )
        assert a == b


class TestSilentByDefault:
    def test_metrics_recorder_never_prints(self, graph, capsys):
        rec = MetricsRecorder()  # no sink: aggregates only
        index = SCTIndex.build(graph, options=RunOptions(recorder=rec))
        sctl_star(index, 3, iterations=2, options=RunOptions(recorder=rec))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""


class TestTrajectoryUpdateBench:
    """The optional ``index_update`` trajectory bench validates strictly."""

    @staticmethod
    def record(index_update=None):
        benches = {
            "index_build": {"seconds": 0.01},
            "path_throughput": {
                "paths": 10, "seconds": 0.001, "paths_per_s": 1e4,
            },
            "service_query": {
                "cold": {"count": 1, "p50_s": 0.02, "p99_s": 0.02},
                "warm": {"count": 5, "p50_s": 1e-5, "p99_s": 2e-5},
            },
        }
        if index_update is not None:
            benches["index_update"] = index_update
        return {
            "schema": "repro/bench-trajectory-v1",
            "recorded_at": "2026-08-07T00:00:00+00:00",
            "python": "3.12.0",
            "dataset": "email",
            "k": 7,
            "benches": benches,
        }

    GOOD = {
        "count": 10, "p50_s": 0.005, "p99_s": 0.009,
        "dirty_fraction": 0.03, "full_rebuild_s": 0.014,
        "speedup_vs_rebuild": 2.6,
    }

    def test_records_without_the_bench_stay_valid(self):
        from repro.obs.validate import validate_trajectory

        assert validate_trajectory([self.record()]) == []

    def test_well_formed_bench_passes(self):
        from repro.obs.validate import validate_trajectory

        assert validate_trajectory([self.record(self.GOOD)]) == []

    def test_dirty_fraction_above_one_rejected(self):
        from repro.obs.validate import validate_trajectory

        bad = dict(self.GOOD, dirty_fraction=1.5)
        errors = validate_trajectory([self.record(bad)])
        assert any("dirty_fraction must be <= 1" in e for e in errors)

    def test_missing_field_rejected(self):
        from repro.obs.validate import validate_trajectory

        bad = {k: v for k, v in self.GOOD.items()
               if k != "speedup_vs_rebuild"}
        errors = validate_trajectory([self.record(bad)])
        assert any("speedup_vs_rebuild" in e for e in errors)
