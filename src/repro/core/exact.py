"""SCTL*-Exact: the sampling-warm-started exact algorithm (Algorithm 7).

Pipeline, following §6.2:

1. **Warm start** — SCTL*-Sample produces an achieved density ``rho'``
   close to the optimum (falling back on the maximum clique's density when
   the sample is uninformative).  The sampler and the later SCTL*
   refinement both stream root-to-leaf paths off their indexes per sweep,
   so the pipeline never materialises a path list and its memory stays
   bounded by tree size plus the explicit clique set of the final scope.
2. **Scope reduction** — Lemma 4: the optimum lies among vertices with
   ``|C_k(v)| >= ceil(rho')``; the engagement recount is iterated inside
   the shrinking scope until a fixed point, all through index queries.
3. **Refinement + verification** — run SCTL* on the reduced subgraph for a
   doubling number of iterations; after each round a single max-flow on
   the scope's clique network (the improved Goldberg condition) either
   certifies optimality or returns a strictly denser subgraph, which
   becomes the new achieved density.  Densities live in a finite set and
   strictly increase, so the loop terminates with a certified optimum.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from math import comb
from typing import List, Optional

from ..errors import BudgetExhausted, SolverError
from ..flow.densest import count_cliques_inside, find_denser_subgraph
from ..graph.graph import Graph
from ..options import RunOptions
from ..results import DenseSubgraphResult, PartialResult
from .reductions import engagement_threshold
from .sampling import sctl_star_sample
from .sct import SCTIndex
from .sctl import empty_result
from .sctl_star import sctl_star

__all__ = ["sctl_star_exact"]

logger = logging.getLogger(__name__)


def sctl_star_exact(
    graph: Graph,
    k: int,
    index: Optional[SCTIndex] = None,
    sample_size: int = 50_000,
    iterations: int = 10,
    seed: int = 0,
    max_rounds: int = 30,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Exact k-clique densest subgraph via Algorithm 7.

    Parameters
    ----------
    graph:
        The input graph.
    index:
        Its SCT*-Index (built on the fly when omitted; must support ``k``).
    sample_size:
        The ``sigma`` passed to the SCTL*-Sample warm start.
    iterations:
        Initial SCTL* iteration count ``T`` (doubled per round, as in
        Lines 5-10).
    seed:
        RNG seed for the sampling stage.
    max_rounds:
        Safety valve on verification rounds; each failed round still makes
        strict progress, so this is never reached in practice.
    options:
        A :class:`~repro.options.RunOptions` with the cross-cutting knobs.

        * ``recorder`` gets the pipeline's stage spans — ``index/build``
          (when the index is built here), ``exact/warm_start``,
          ``exact/scope_reduction``, ``exact/scope_index`` and one
          ``exact/flow_round/<i>`` per verification round (the nested
          SCTL* refinement and its reduction spans land underneath) —
          plus scope/drop counters and the running density gauge.
        * ``budget`` is polled at every stage boundary and threaded into
          the warm start, the nested index builds and the nested SCTL*
          refinement.  On exhaustion the run falls back from the
          flow-certified exact answer to its best achieved estimate
          (sampling warm start or better), returned as a *valid*
          non-exact :class:`~repro.results.PartialResult`; only
          exhaustion during the initial index build — before anything is
          achieved — yields an invalid one.
        * ``checkpoint`` / ``resume`` cover only the initial
          :meth:`SCTIndex.build` (kind ``"sct-build"``) when the index is
          built here; nested sub-scope builds and refinements run
          budget-only to keep checkpoint kinds unambiguous.
        * ``parallel`` reaches the initial index build, the warm-start
          sampler, the sub-scope index build and the nested SCTL*
          refinements — every stage keeps its byte-for-byte serial
          parity, so the certified answer does too.
    """
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    budget = opts.budget
    if index is None:
        try:
            index = SCTIndex.build(graph, options=opts)
        except BudgetExhausted as exc:
            return PartialResult(
                vertices=[],
                clique_count=0,
                k=k,
                algorithm="SCTL*-Exact",
                valid=False,
                reason=exc.reason,
                stage=exc.stage or "index/build",
            )
    if index.max_clique_size < k:
        return empty_result(k, "SCTL*-Exact", exact=True)

    # ---- stage 1: warm start ------------------------------------------
    with recorder.span("exact/warm_start"):
        warm = sctl_star_sample(
            index, k, sample_size=sample_size, iterations=iterations,
            seed=seed, options=opts.replace(checkpoint=None, resume=False),
        )
        best_vertices = warm.vertices
        best_count = warm.clique_count
        best_density = warm.density_fraction
        max_clique = index.a_maximum_clique()
        clique_density = Fraction(comb(len(max_clique), k), len(max_clique))
        if clique_density > best_density:
            best_vertices = max_clique
            best_count = comb(len(max_clique), k)
            best_density = clique_density
    if recorder.enabled:
        recorder.gauge("exact/warm_density", float(best_density))

    def _degrade(reason: str, stage: str, flow_rounds: int = 0) -> PartialResult:
        # the warm start (or a later flow round) already achieved a genuine
        # subgraph, so exhaustion degrades to its best density, un-certified
        if recorder.enabled:
            recorder.counter("budget/exhausted")
            recorder.gauge("budget/reason", reason)
            recorder.gauge("budget/stage", stage)
        return PartialResult(
            vertices=sorted(best_vertices),
            clique_count=best_count,
            k=k,
            algorithm="SCTL*-Exact",
            upper_bound=None,
            exact=False,
            stats={
                "warm_density": float(warm.density_fraction),
                "flow_rounds": flow_rounds,
            },
            reason=reason,
            stage=stage,
        )

    if budget.active:
        reason = budget.exceeded()
        if reason:
            return _degrade(reason, "exact/scope_reduction")

    logger.debug(
        "warm start: density %.6f (sample %.6f, max clique %.6f)",
        float(best_density), float(warm.density_fraction), float(clique_density),
    )

    # ---- stage 2: engagement scope reduction to a fixed point ----------
    with recorder.span("exact/scope_reduction"):
        threshold = engagement_threshold(best_density)
        engagement = index.per_vertex_counts(k)
        scope = [v for v in graph.vertices() if engagement[v] >= threshold]
        fixed_point_rounds = 0
        while True:
            if budget.active:
                reason = budget.exceeded()
                if reason:
                    return _degrade(reason, "exact/scope_reduction")
            fixed_point_rounds += 1
            inside = index.per_vertex_counts_in_subset(k, scope)
            reduced = [v for v in scope if inside[v] >= threshold]
            if len(reduced) == len(scope):
                break
            scope = reduced
    if recorder.enabled:
        recorder.counter("exact/scope_vertices", len(scope))
        recorder.counter("exact/vertices_dropped", graph.n - len(scope))
        recorder.counter("exact/fixed_point_rounds", fixed_point_rounds)
    logger.debug(
        "scope reduced to %d/%d vertices (threshold %d)",
        len(scope), graph.n, threshold,
    )
    if not scope:
        raise SolverError(
            "engagement reduction emptied the scope below an achieved "
            "density — this indicates an internal inconsistency"
        )

    # ---- stage 3: refine + verify ---------------------------------------
    try:
        with recorder.span("exact/scope_index"):
            subgraph, originals = graph.induced_subgraph(scope)
            sub_index = SCTIndex.build(
                subgraph, options=opts.replace(checkpoint=None, resume=False),
            )
            cliques = [
                tuple(originals[v] for v in clique)
                for clique in sub_index.iter_k_cliques(k)
            ]
    except BudgetExhausted as exc:
        return _degrade(exc.reason, "exact/scope_index")
    if recorder.enabled:
        recorder.counter("exact/scope_cliques", len(cliques))
    flow_rounds = 0
    current_iterations = iterations
    for _ in range(max_rounds):
        if budget.active:
            reason = budget.exceeded()
            if reason:
                return _degrade(
                    reason, f"exact/flow_round/{flow_rounds + 1}", flow_rounds
                )
        with recorder.span(
            f"exact/flow_round/{flow_rounds + 1}", observe="stage/flow_verify"
        ):
            refined = sctl_star(
                sub_index, k, iterations=current_iterations,
                options=opts.replace(checkpoint=None, resume=False),
            )
            if refined.density_fraction > best_density:
                best_vertices = sorted(originals[v] for v in refined.vertices)
                best_count = refined.clique_count
                best_density = refined.density_fraction
            if refined.is_partial:
                # the nested refinement ran out mid-round: fold in whatever
                # it achieved and degrade instead of paying for a flow check
                return _degrade(
                    refined.reason or "deadline",
                    f"exact/flow_round/{flow_rounds + 1}",
                    flow_rounds,
                )
            flow_rounds += 1
            logger.debug(
                "flow round %d: checking optimality of density %.6f over %d cliques",
                flow_rounds, float(best_density), len(cliques),
            )
            denser = find_denser_subgraph(cliques, scope, best_density)
        if recorder.enabled:
            recorder.counter("exact/flow_rounds")
            recorder.gauge("exact/density", float(best_density))
            recorder.event(
                "flow_round",
                round=flow_rounds,
                density=float(best_density),
                certified=denser is None,
            )
        if denser is None:
            return DenseSubgraphResult(
                vertices=sorted(best_vertices),
                clique_count=best_count,
                k=k,
                algorithm="SCTL*-Exact",
                iterations=current_iterations,
                upper_bound=float(best_density),
                exact=True,
                stats={
                    "scope_vertices": len(scope),
                    "scope_cliques": len(cliques),
                    "flow_rounds": flow_rounds,
                    "warm_density": float(warm.density_fraction),
                },
            )
        count = count_cliques_inside(cliques, denser)
        density = Fraction(count, len(denser))
        if density <= best_density:
            raise SolverError("flow oracle returned a non-improving subgraph")
        best_vertices = sorted(denser)
        best_count = count
        best_density = density
        current_iterations *= 2
    raise SolverError(f"verification did not converge in {max_rounds} rounds")
