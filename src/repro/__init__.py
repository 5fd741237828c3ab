"""repro — Scaling Up k-Clique Densest Subgraph Detection.

A complete, pure-Python implementation of the SIGMOD 2023 paper: the
SCT*-Index, the SCTL / SCTL+ / SCTL* approximation family, the
SCTL*-Sample sampling algorithm and the SCTL*-Exact solver, together with
every baseline the paper compares against (KCL, KCL-Sample, KCL-Exact,
CoreApp, CoreExact) and the substrates they need (degeneracy cores,
KCList, Bron–Kerbosch, Dinic max-flow, the Goldberg-style clique flow
network).

Quickstart::

    from repro import SCTIndex, sctl_star, sctl_star_exact
    from repro.graph import relaxed_caveman_graph

    graph = relaxed_caveman_graph(10, 8, 0.1, seed=1)
    index = SCTIndex.build(graph)          # offline, reusable for any k
    approx = sctl_star(index, k=4)         # near-optimal in a few passes
    exact = sctl_star_exact(graph, 4, index=index)
    print(approx.summary())
    print(exact.summary())

The top-level :func:`densest_subgraph` facade picks the algorithm by name.
"""

from __future__ import annotations

import time
from typing import Optional

from .baselines import (
    core_app,
    core_exact,
    greedy_peeling,
    kcl,
    kcl_exact,
    kcl_sample,
)
from .core import (
    DensityProfile,
    DirtyRegion,
    SCTIndex,
    SCTPath,
    density_profile,
    sctl,
    sctl_plus,
    sctl_star,
    sctl_star_exact,
    sctl_star_sample,
    top_dense_subgraphs,
)
from .results import RESULT_SCHEMA, DenseSubgraphResult, PartialResult
from .errors import (
    BudgetExhausted,
    CheckpointError,
    DatasetError,
    EdgeListParseError,
    GraphError,
    IndexBuildError,
    IndexQueryError,
    InvalidParameterError,
    ReproError,
    SolverError,
    TimeoutExceeded,
)
from .graph import Graph
from .hypergraph import Hypergraph
from .obs import NULL_RECORDER, MetricsRecorder, NullRecorder, Recorder
from .options import RunOptions
from .parallel import ParallelConfig
from .registry import (
    MethodSpec,
    available_methods,
    get_method,
    methods_supporting,
    register_method,
)
from .resilience import (
    NULL_BUDGET,
    Budget,
    Checkpointer,
    FaultPlan,
    NullBudget,
    RunBudget,
)

__version__ = "4.0.0"

__all__ = [
    "Graph",
    "Hypergraph",
    "SCTIndex",
    "SCTPath",
    "DirtyRegion",
    "DenseSubgraphResult",
    "RESULT_SCHEMA",
    "densest_subgraph",
    "sctl",
    "sctl_plus",
    "sctl_star",
    "sctl_star_sample",
    "sctl_star_exact",
    "kcl",
    "kcl_sample",
    "kcl_exact",
    "core_app",
    "core_exact",
    "greedy_peeling",
    "density_profile",
    "DensityProfile",
    "top_dense_subgraphs",
    "RunOptions",
    "ParallelConfig",
    "MethodSpec",
    "available_methods",
    "get_method",
    "methods_supporting",
    "register_method",
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "NULL_RECORDER",
    "PartialResult",
    "Budget",
    "NullBudget",
    "RunBudget",
    "NULL_BUDGET",
    "Checkpointer",
    "FaultPlan",
    "ReproError",
    "GraphError",
    "InvalidParameterError",
    "IndexBuildError",
    "IndexQueryError",
    "DatasetError",
    "EdgeListParseError",
    "SolverError",
    "BudgetExhausted",
    "TimeoutExceeded",
    "CheckpointError",
    "__version__",
]

def densest_subgraph(
    graph: Graph,
    k: int,
    method: str = "sctl*",
    iterations: int = 10,
    index: Optional[SCTIndex] = None,
    sample_size: Optional[int] = None,
    seed: int = 0,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """One-call facade over every algorithm in the registry.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Clique size (``>= 3`` for the paper's setting).
    method:
        Any name from :func:`available_methods` — built in: ``"sctl"``,
        ``"sctl+"``, ``"sctl*"``, ``"sctl*-sample"``, ``"sctl*-exact"``,
        ``"kcl"``, ``"kcl-sample"``, ``"kcl-exact"``, ``"coreapp"``,
        ``"coreexact"``, ``"peel"`` — or anything added through
        :func:`register_method`.  Matching is case-insensitive, ignores
        whitespace and underscores, and accepts spelled-out aliases such
        as ``"sctl-star"``.
    iterations:
        Refinement passes for the iterative methods.
    index:
        A pre-built SCT*-Index to reuse for the SCT-based methods
        (built on demand otherwise).
    sample_size:
        Sample size for the ``*-sample`` methods (default ``10_000``).
    seed:
        RNG seed for sampling methods.
    options:
        A :class:`RunOptions` with the cross-cutting knobs, forwarded to
        the index build and to every SCT-based method.

        * ``recorder`` — the observability hook (``repro.obs``).  The
          baselines (KCL, CoreApp, ...) predate the SCT pipeline and
          warn once that they ignore it.
        * ``budget`` — a :class:`~repro.resilience.RunBudget`.  On
          exhaustion the call returns a :class:`PartialResult` instead
          of raising — invalid (empty) when the budget ran out before
          anything was achieved, best-so-far otherwise.  A method that
          does not honour a budget is rejected with
          :class:`InvalidParameterError`.
        * ``checkpoint`` / ``resume`` — a checkpoint directory (or
          :class:`~repro.resilience.Checkpointer`) and the restart
          switch, covering the index build and the SCTL-family
          refinements.
        * ``parallel`` — shards the index build and the path sweeps over
          a process pool while keeping every result byte-identical to
          serial.  A method without parallel support is rejected with
          :class:`InvalidParameterError`.
    """
    t0 = time.perf_counter()
    spec = get_method(method)
    opts = RunOptions.resolve(options)
    # capability gating: reject an unsupported knob up front with the
    # lists-valid-names error instead of silently ignoring it mid-run
    if (
        opts.parallel is not None
        and opts.parallel.enabled
        and not spec.supports_parallel
    ):
        raise InvalidParameterError(
            f"method {spec.name!r} does not support parallel execution; "
            "methods that do: " + ", ".join(methods_supporting("parallel"))
        )
    if opts.budget is not NULL_BUDGET and not spec.supports_budget:
        raise InvalidParameterError(
            f"method {spec.name!r} does not honour a run budget; "
            "methods that do: " + ", ".join(methods_supporting("budget"))
        )
    index_build_s = None
    if spec.needs_index and index is None:
        try:
            index = SCTIndex.build(graph, options=opts)
        except BudgetExhausted as exc:
            result = PartialResult(
                vertices=[],
                clique_count=0,
                k=k,
                algorithm=spec.name,
                valid=False,
                reason=exc.reason,
                stage=exc.stage or "index/build",
            )
            result.timings["total_s"] = time.perf_counter() - t0
            return result
        index_build_s = time.perf_counter() - t0
    sigma = sample_size if sample_size is not None else 10_000
    result = spec.fn(
        graph,
        k,
        index=index,
        iterations=iterations,
        sample_size=sigma,
        seed=seed,
        options=opts,
    )
    if index_build_s is not None:
        result.timings.setdefault("index_build_s", index_build_s)
    result.timings["total_s"] = time.perf_counter() - t0
    return result
