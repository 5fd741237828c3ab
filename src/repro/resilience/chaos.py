"""Chaos sweep: one injected fault per pipeline stage, zero tracebacks.

Usage::

    python -m repro.resilience.chaos dataset:email -k 7
    python -m repro.resilience.chaos graph.txt -k 4 --method sctl*

For every instrumented stage of the pipeline (:data:`PIPELINE_STAGES`)
the sweep runs the query twice:

* **crash** — a ``"raise"`` fault throws :class:`FaultInjected` at the
  stage boundary (with a checkpoint directory armed), then the query is
  re-run with ``--resume`` semantics; the resumed answer must equal the
  fault-free baseline exactly.
* **cancel** — a ``"cancel"`` fault cooperatively cancels a
  :class:`RunBudget` at the stage boundary; the run must complete or
  degrade to a well-formed :class:`~repro.results.PartialResult`
  whose achieved density never exceeds the baseline.

A stage the chosen method never reaches is reported as ``skipped`` (the
fault is armed but nothing crosses the boundary).  Any traceback, malformed
result or density mismatch fails the sweep; the process exit code is the
number of failing stages, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import traceback
from typing import List, Optional, Tuple

from .. import densest_subgraph
from ..graph import Graph, read_edge_list
from ..options import RunOptions
from ..results import DenseSubgraphResult
from .budget import RunBudget
from .faults import PIPELINE_STAGES, FaultInjected, FaultPlan

__all__ = ["run_sweep", "main"]


def _load_graph(spec: str) -> Graph:
    if spec.startswith("dataset:"):
        from ..datasets import load_dataset

        return load_dataset(spec.split(":", 1)[1])
    return read_edge_list(spec)


def _well_formed(result: DenseSubgraphResult, k: int) -> Optional[str]:
    """None when ``result`` is structurally sound, else a complaint."""
    if not isinstance(result, DenseSubgraphResult):
        return f"returned {type(result).__name__}, not a result object"
    if result.k != k:
        return f"result.k = {result.k}, expected {k}"
    if result.clique_count < 0 or len(result.vertices) != len(set(result.vertices)):
        return "malformed vertices/clique_count"
    if result.is_partial and not result.reason:
        return "partial result without a reason"
    try:
        result.summary()
    except Exception as exc:  # summary must never crash on any outcome
        return f"summary() raised {exc!r}"
    return None


def _check_crash(
    graph: Graph, k: int, method: str, stage: str, baseline: DenseSubgraphResult,
    **query_kwargs,
) -> Tuple[str, str]:
    """Inject a crash at ``stage``, resume, demand the exact baseline."""
    ckpt_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        plan = FaultPlan.raising(stage)
        try:
            result = densest_subgraph(
                graph, k, method=method,
                options=RunOptions(
                    recorder=plan.recorder(), checkpoint=ckpt_dir
                ),
                **query_kwargs,
            )
        except FaultInjected:
            result = None
        except Exception:
            return "FAIL", f"unexpected traceback:\n{traceback.format_exc()}"
        if not plan.triggered:
            return "skipped", "stage not reached by this method"
        if result is None:  # crashed as planned: resume must recover exactly
            try:
                result = densest_subgraph(
                    graph, k, method=method,
                    options=RunOptions(checkpoint=ckpt_dir, resume=True),
                    **query_kwargs,
                )
            except Exception:
                return "FAIL", f"resume raised:\n{traceback.format_exc()}"
        complaint = _well_formed(result, k)
        if complaint:
            return "FAIL", complaint
        if result.density_fraction != baseline.density_fraction:
            return "FAIL", (
                f"resumed density {result.density} != "
                f"baseline {baseline.density}"
            )
        return "ok", "crashed, resumed to the exact baseline"
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


def _check_cancel(
    graph: Graph, k: int, method: str, stage: str, baseline: DenseSubgraphResult,
    **query_kwargs,
) -> Tuple[str, str]:
    """Cancel the budget at ``stage``, demand graceful degradation."""
    budget = RunBudget()
    plan = FaultPlan.cancelling(stage, budget)
    try:
        result = densest_subgraph(
            graph, k, method=method,
            options=RunOptions(recorder=plan.recorder(), budget=budget),
            **query_kwargs,
        )
    except Exception:
        return "FAIL", f"unexpected traceback:\n{traceback.format_exc()}"
    if not plan.triggered:
        return "skipped", "stage not reached by this method"
    complaint = _well_formed(result, k)
    if complaint:
        return "FAIL", complaint
    if result.is_partial and result.valid:
        if result.density_fraction > baseline.density_fraction:
            return "FAIL", (
                f"partial density {result.density} exceeds "
                f"baseline {baseline.density}"
            )
        return "ok", f"degraded to a valid partial ({result.reason})"
    if result.is_partial:
        return "ok", f"degraded to an invalid partial at {result.stage}"
    return "ok", "completed despite the cancellation"


def run_sweep(
    graph: Graph, k: int, method: str = "sctl*-exact", seed: int = 0,
    sample_size: Optional[int] = None,
    stages: Tuple[str, ...] = PIPELINE_STAGES,
) -> List[Tuple[str, str, str, str]]:
    """Run the full sweep; returns ``(stage, mode, status, detail)`` rows."""
    kwargs = {"seed": seed, "sample_size": sample_size}
    baseline = densest_subgraph(graph, k, method=method, **kwargs)
    rows: List[Tuple[str, str, str, str]] = []
    for stage in stages:
        status, detail = _check_crash(
            graph, k, method, stage, baseline, **kwargs
        )
        rows.append((stage, "crash", status, detail))
        status, detail = _check_cancel(
            graph, k, method, stage, baseline, **kwargs
        )
        rows.append((stage, "cancel", status, detail))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="fault-injection sweep over every pipeline stage",
    )
    parser.add_argument("graph", help="edge-list path or dataset:<name>")
    parser.add_argument("-k", type=int, required=True, help="clique size")
    parser.add_argument(
        "--method", default="sctl*-exact",
        help="query method to stress (default: sctl*-exact)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sample-size", type=int, default=None,
        help="sample size for the warm start (smaller = faster sweep)",
    )
    args = parser.parse_args(argv)

    graph = _load_graph(args.graph)
    rows = run_sweep(
        graph, args.k, method=args.method, seed=args.seed,
        sample_size=args.sample_size,
    )
    failures = 0
    for stage, mode, status, detail in rows:
        if status == "FAIL":
            failures += 1
        print(f"{status:>7}  {mode:<6} {stage:<24} {detail}")
    injected = sum(1 for _, _, status, _ in rows if status != "skipped")
    print(
        f"\nchaos sweep: {injected} faults injected across "
        f"{len(PIPELINE_STAGES)} stages, {failures} failures"
    )
    return failures


if __name__ == "__main__":
    sys.exit(main())
