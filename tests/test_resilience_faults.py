"""Unit tests for repro.resilience.faults and the chaos sweep harness."""

import pytest

from repro import RunOptions
from repro.core import SCTIndex, sctl_star
from repro.graph import relaxed_caveman_graph
from repro.obs import MetricsRecorder
from repro.resilience import (
    PIPELINE_STAGES,
    Fault,
    FaultInjected,
    FaultPlan,
    RunBudget,
)
from repro.resilience.chaos import run_sweep
from repro.results import PartialResult


@pytest.fixture(scope="module")
def graph():
    return relaxed_caveman_graph(6, 6, 0.1, seed=3)


@pytest.fixture(scope="module")
def index(graph):
    return SCTIndex.build(graph)


class TestFaultMatching:
    def test_exact_and_prefix_match(self):
        fault = Fault("refine/iteration")
        assert fault.matches("refine/iteration")
        assert fault.matches("refine/iteration/3")
        assert not fault.matches("refine/iterationX")
        assert not fault.matches("refine")

    def test_fires_on_requested_hit_only(self):
        fault = Fault("stage", hit=3)
        fault.fire("stage", "enter")
        fault.fire("stage", "enter")
        with pytest.raises(FaultInjected):
            fault.fire("stage", "enter")
        fault.fire("stage", "enter")  # spent: never fires again

    def test_respects_when(self):
        fault = Fault("stage", when="exit")
        fault.fire("stage", "enter")  # wrong boundary: ignored
        with pytest.raises(FaultInjected):
            fault.fire("stage", "exit")

    def test_cancel_requires_budget(self):
        with pytest.raises(ValueError):
            Fault("stage", action="cancel").fire("stage", "enter")

    def test_cancel_cancels_budget(self):
        budget = RunBudget()
        Fault("stage", action="cancel", budget=budget).fire("stage", "enter")
        assert budget.cancelled
        assert "stage" in budget.cancel_reason


class TestFaultPlan:
    def test_raising_plan_fires_through_recorder_span(self):
        plan = FaultPlan.raising("index/build")
        recorder = plan.recorder()
        with pytest.raises(FaultInjected):
            with recorder.span("index/build"):
                pass
        # the trigger is logged even though the fault raised
        assert plan.triggered == [("index/build", "raise", "enter")]

    def test_unmatched_spans_pass_through(self):
        plan = FaultPlan.raising("index/build")
        recorder = plan.recorder()
        with recorder.span("sample/draw"):
            pass
        assert plan.triggered == []

    def test_exit_fault_skipped_when_span_raises(self):
        # exit boundaries model "crash after the stage finished" — a span
        # that failed on its own never reaches that boundary
        plan = FaultPlan.raising("stage", when="exit")
        recorder = plan.recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("stage"):
                raise RuntimeError("inner failure")
        assert plan.triggered == []

    def test_metrics_delegate_to_inner(self):
        inner = MetricsRecorder()
        plan = FaultPlan([])
        recorder = plan.recorder(inner)
        assert recorder.enabled
        recorder.counter("x", 2)
        recorder.gauge("g", 1.5)
        with recorder.span("s"):
            pass
        assert inner.counters["x"] == 2
        assert inner.gauges["g"] == 1.5

    def test_cancel_plan_degrades_sctl_star(self, index):
        budget = RunBudget()
        plan = FaultPlan.cancelling("refine/iteration/2", budget)
        result = sctl_star(
            index, 3, iterations=5,
            options=RunOptions(recorder=plan.recorder(), budget=budget),
        )
        assert plan.triggered
        assert isinstance(result, PartialResult)
        assert result.valid
        assert result.iterations == 1
        assert result.reason == "cancelled"

    def test_delay_plan_fires_without_changing_result(self, index):
        plan = FaultPlan.delaying("refine/iteration/1", seconds=0.0)
        clean = sctl_star(index, 3, iterations=3)
        delayed = sctl_star(
            index, 3, iterations=3,
            options=RunOptions(recorder=plan.recorder()),
        )
        assert plan.triggered
        assert delayed.vertices == clean.vertices
        assert delayed.stats["weights"] == clean.stats["weights"]


class TestChaosSweep:
    def test_sweep_has_no_failures(self, graph):
        rows = run_sweep(graph, 3, method="sctl*-exact", sample_size=200)
        assert rows, "sweep produced no rows"
        failures = [r for r in rows if r[2] == "FAIL"]
        assert not failures, f"chaos sweep failed: {failures}"
        injected = [r for r in rows if r[2] == "ok"]
        # the exact pipeline must actually reach (nearly) every stage
        assert len(injected) >= 2 * (len(PIPELINE_STAGES) - 2)
