"""Logging integration: the algorithms narrate at DEBUG level."""

import logging

from repro import RunOptions
from repro.core import SCTIndex, sctl_star, sctl_star_exact
from repro.graph import gnp_graph


class TestDebugLogging:
    def test_sctl_star_logs_iterations(self, caplog):
        g = gnp_graph(15, 0.45, seed=2)
        index = SCTIndex.build(g)
        with caplog.at_level(logging.DEBUG, logger="repro.core.sctl_star"):
            sctl_star(index, 3, iterations=3)
        iteration_lines = [
            r for r in caplog.records if "iteration" in r.getMessage()
        ]
        assert len(iteration_lines) == 3

    def test_exact_logs_stages(self, caplog):
        g = gnp_graph(15, 0.45, seed=2)
        with caplog.at_level(logging.DEBUG, logger="repro.core.exact"):
            sctl_star_exact(g, 3, sample_size=50, iterations=3)
        messages = [r.getMessage() for r in caplog.records]
        assert any("warm start" in m for m in messages)
        assert any("scope reduced" in m for m in messages)
        assert any("flow round" in m for m in messages)

    def test_silent_by_default(self, capsys):
        g = gnp_graph(12, 0.45, seed=3)
        index = SCTIndex.build(g)
        sctl_star(index, 3, iterations=2)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_metrics_layer_silent_too(self, capsys):
        # the observability layer honours the same guarantee: a recorder
        # without a sink aggregates in memory and prints nothing
        from repro.obs import MetricsRecorder

        g = gnp_graph(12, 0.45, seed=3)
        recorder = MetricsRecorder()
        index = SCTIndex.build(g, options=RunOptions(recorder=recorder))
        sctl_star(
            index, 3, iterations=2, options=RunOptions(recorder=recorder)
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
        assert recorder.counters  # it did record, just silently
