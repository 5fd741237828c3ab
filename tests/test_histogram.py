"""repro.obs histograms: quantiles, exact merges, Prometheus round-trips."""

import io
import threading

import pytest

from repro import MetricsRecorder, RunOptions
from repro.core import SCTIndex, sctl_star
from repro.graph import relaxed_caveman_graph
from repro.obs import (
    DEFAULT_BOUNDS,
    Histogram,
    default_bounds,
    histogram_from_buckets,
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
)
from repro.obs.validate import validate_metrics, validate_trace_lines


class TestHistogramBasics:
    def test_default_bounds_are_shared_and_increasing(self):
        assert default_bounds() == DEFAULT_BOUNDS
        assert all(
            b2 > b1 for b1, b2 in zip(DEFAULT_BOUNDS, DEFAULT_BOUNDS[1:])
        )
        # wide enough for microsecond latencies and count-valued series
        assert DEFAULT_BOUNDS[0] == 1e-6
        assert DEFAULT_BOUNDS[-1] == 5e8

    def test_observe_uses_upper_inclusive_buckets(self):
        hist = Histogram(bounds=[1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0):
            hist.observe(value)
        # le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=4: {3.0}; +Inf: {9.0}
        assert hist.counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.total == pytest.approx(17.0)

    def test_quantile_is_the_bucket_upper_bound(self):
        hist = Histogram(bounds=[1.0, 2.0, 4.0])
        for value in (0.5, 0.6, 0.7, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.75) == 1.0
        assert hist.quantile(1.0) == 4.0

    def test_quantile_empty_and_bounds_errors(self):
        hist = Histogram()
        assert hist.quantile(0.5) is None
        assert hist.mean() is None
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_overflow_reports_largest_finite_bound(self):
        hist = Histogram(bounds=[1.0, 2.0])
        hist.observe(100.0)
        assert hist.counts[-1] == 1
        assert hist.quantile(0.99) == 2.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[])
        with pytest.raises(ValueError):
            Histogram(bounds=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram(bounds=[2.0, 1.0])

    def test_summary_digest(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        digest = hist.summary()
        assert digest["count"] == 3
        assert digest["sum"] == pytest.approx(0.006)
        assert digest["p50"] == hist.quantile(0.50)
        assert digest["p99"] == hist.quantile(0.99)


class TestHistogramMerging:
    def test_absorb_is_exact_bucketwise_addition(self):
        values = [0.0007, 0.003, 0.02, 0.5, 1.7, 42.0, 0.003, 0.02]
        direct = Histogram()
        for value in values:
            direct.observe(value)
        # split the samples over 4 "workers" and merge the snapshots
        merged = Histogram()
        for start in range(4):
            worker = Histogram()
            for value in values[start::4]:
                worker.observe(value)
            merged.absorb(worker.snapshot())
        assert merged.counts == direct.counts
        assert merged.count == direct.count
        assert merged.total == pytest.approx(direct.total)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert merged.quantile(q) == direct.quantile(q)

    def test_absorb_rejects_mismatched_bounds(self):
        ours = Histogram(bounds=[1.0, 2.0])
        theirs = Histogram(bounds=[1.0, 3.0])
        with pytest.raises(ValueError):
            ours.absorb(theirs.snapshot())
        snap = Histogram(bounds=[1.0, 2.0]).snapshot()
        snap["counts"] = [0, 0]  # wrong length
        with pytest.raises(ValueError):
            ours.absorb(snap)

    def test_from_snapshot_round_trip(self):
        hist = Histogram()
        for value in (0.001, 0.5, 12.0):
            hist.observe(value)
        clone = Histogram.from_snapshot(hist.snapshot())
        assert clone.counts == hist.counts
        assert clone.bounds == hist.bounds
        assert clone.quantile(0.99) == hist.quantile(0.99)

    def test_recorder_absorb_merges_histograms_exactly(self):
        values = [0.0007, 0.003, 0.02, 0.5, 1.7, 42.0, 0.02, 0.003]
        direct = MetricsRecorder()
        for value in values:
            direct.observe("latency", value)
        parent = MetricsRecorder()
        for start in range(4):
            worker = MetricsRecorder()
            for value in values[start::4]:
                worker.observe("latency", value)
            parent.absorb(worker.snapshot())
        assert (
            parent.histograms["latency"].counts
            == direct.histograms["latency"].counts
        )
        assert parent.quantile("latency", 0.99) == direct.quantile(
            "latency", 0.99
        )
        assert validate_metrics(parent.snapshot()) == []


class TestExposition:
    def test_render_parse_round_trip_rederives_quantiles(self):
        rec = MetricsRecorder()
        rec.counter("service/requests/query", 7)
        rec.gauge("service/queue_depth", 3)
        rec.gauge("budget/reason", "wall")  # string gauge: skipped
        for value in (0.0001, 0.002, 0.002, 0.7, 3.0):
            rec.observe("service/latency/query/warm", value)
        text = render_exposition(rec.snapshot())
        parsed = parse_exposition(text)
        assert parsed["repro_service_requests_query_total"]["value"] == 7
        assert parsed["repro_service_queue_depth"]["value"] == 3
        assert "budget" not in text
        metric = parsed["repro_service_latency_query_warm"]
        assert metric["type"] == "histogram"
        cumulative = [count for _, count in metric["buckets"]]
        assert cumulative == sorted(cumulative)
        assert metric["buckets"][-1][0] == float("inf")
        assert metric["buckets"][-1][1] == metric["count"] == 5
        bounds, counts = histogram_from_buckets(metric["buckets"])
        rebuilt = Histogram.from_snapshot({
            "bounds": bounds, "counts": counts,
            "sum": metric["sum"], "count": metric["count"],
        })
        original = rec.histograms["service/latency/query/warm"]
        for q in (0.5, 0.95, 0.99):
            assert rebuilt.quantile(q) == original.quantile(q)

    def test_sanitize_metric_name(self):
        assert (
            sanitize_metric_name("service/latency/query")
            == "repro_service_latency_query"
        )
        assert sanitize_metric_name("9lives", namespace="") == "_9lives"


class TestPipelineHistograms:
    def test_stage_histograms_recorded_and_trace_valid(self):
        graph = relaxed_caveman_graph(6, 6, 0.1, seed=3)
        sink = io.StringIO()
        rec = MetricsRecorder(sink=sink)
        index = SCTIndex.build(graph, options=RunOptions(recorder=rec))
        sctl_star(index, 3, iterations=3, options=RunOptions(recorder=rec))
        assert rec.histograms["stage/index_build"].count == 1
        refine = rec.histograms["stage/refine_round"]
        assert refine.count == 3
        assert refine.total == pytest.approx(
            rec.span_seconds("refine/iteration"), rel=1e-6
        )
        per_round = rec.histograms["refine/paths_per_round"]
        assert per_round.count == 3
        assert validate_trace_lines(sink.getvalue().splitlines()) == []
        assert validate_metrics(rec.snapshot()) == []

    def test_parallel_histograms_merge_bucket_exact_vs_serial(self):
        graph = relaxed_caveman_graph(8, 6, 0.1, seed=7)
        index = SCTIndex.build(graph)
        serial, parallel = MetricsRecorder(), MetricsRecorder()
        sctl_star(index, 3, iterations=4, options=RunOptions(recorder=serial))
        sctl_star(
            index, 3, iterations=4,
            options=RunOptions(recorder=parallel, parallel=4),
        )
        # paths-per-round is a deterministic distribution (path parity),
        # so the merged worker snapshots must land in identical buckets
        key = "refine/paths_per_round"
        assert parallel.histograms[key].counts == serial.histograms[key].counts
        assert parallel.histograms[key].count == serial.histograms[key].count
        # the parallel run also collected per-chunk sweep distributions
        chunk_keys = [
            name for name in parallel.histograms
            if name.startswith("parallel/chunk_seconds/")
        ]
        assert chunk_keys
        assert all(
            parallel.histograms[name].count > 0 for name in chunk_keys
        )


class TestThreadSafety:
    def test_eight_threads_hammering_one_recorder(self):
        rec = MetricsRecorder()
        threads, per_thread = 8, 2000

        def hammer(i):
            for _ in range(per_thread):
                rec.counter("shared")
                rec.counter(f"mine/{i}")
                rec.observe("latency", 0.001)
                rec.event("tick")

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert rec.counters["shared"] == threads * per_thread
        for i in range(threads):
            assert rec.counters[f"mine/{i}"] == per_thread
        assert rec.counters["events/tick"] == threads * per_thread
        assert rec.histograms["latency"].count == threads * per_thread
        assert validate_metrics(rec.snapshot()) == []
