"""SCTL+ and SCTL*: weight refinement with reductions and batching (§5.3).

Algorithm 5 of the paper.  Relative to plain SCTL, two optimisations apply
per iteration, each independently switchable so the benchmark suite can
reproduce the paper's SCTL / SCTL+ / SCTL* ladder:

* ``use_reductions`` — clique-connectivity pruning (skip any path whose
  partition's Lemma 3 density bound is dominated by the best density found
  so far) and clique-engagement pruning (skip paths with an out-of-scope
  hold, drop out-of-scope pivots; Lemma 4).  Scope engagements are
  re-accumulated from the surviving paths while sweeping, as in Lines 9-10.
* ``use_batch`` — distribute each path's clique weight through
  :func:`~repro.core.batch.batch_update` instead of visiting cliques
  individually.

The best density found so far is always an *achieved* density (it starts
from a maximum clique fetched off the index and is re-extracted from the
weights each iteration), so both reductions are lossless for the optimum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, List, Optional, Sequence

from ..errors import InvalidParameterError
from ..graph.graph import Graph
from ..obs import Recorder
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET, Budget
from ..resilience.checkpoint import Checkpointer, require_match
from ..results import DenseSubgraphResult, PartialResult
from .batch import batch_update
from .extraction import best_prefix_from_paths
from .reductions import engagement_threshold, kp_computation, partition_density_bounds
from .sct import SCTIndex, SCTPath
from .sctl import _validated_warm_start, empty_result

__all__ = ["IterationStats", "sctl_star", "sctl_plus"]

logger = logging.getLogger(__name__)

_CHECKPOINT_KIND = "sctl-star-weights"


@dataclass
class IterationStats:
    """Per-iteration instrumentation (feeds Table 4 of the paper).

    ``scope_*`` fields describe the search scope ``G_T`` *entering* the
    iteration; ``cliques_processed`` counts k-cliques surviving reduction;
    ``weight_updates`` counts actual weight writes (batching makes it far
    smaller than ``cliques_processed``).
    """

    iteration: int
    scope_vertices: int
    scope_edges: Optional[int]
    scope_cliques: Optional[int]
    cliques_processed: int
    weight_updates: int
    rho: float


def sctl_star(
    index: SCTIndex,
    k: int,
    iterations: int = 10,
    warm_start: Optional[Sequence[int]] = None,
    graph: Optional[Graph] = None,
    use_reductions: bool = True,
    use_batch: bool = True,
    collect_stats: bool = False,
    paths: Optional[Iterable[SCTPath]] = None,
    algorithm_name: Optional[str] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Run SCTL* (Algorithm 5) and return the best extracted subgraph.

    Parameters
    ----------
    index:
        SCT*-Index of the graph (threshold ``<= k``).
    k:
        Clique size.
    iterations:
        Number of refinement passes ``T``.
    warm_start:
        Seed the weight vector from a previous run's
        ``stats["weights"]`` instead of zeros; the incremental-update
        path re-refines the updated index from where the pre-update run
        converged.  Must carry one weight per vertex.  With a warm
        start the reported ``upper_bound`` is heuristic (the certified
        bound assumes a zero start); the achieved density is unaffected
        because it is always re-extracted.  A restored checkpoint
        (``resume``) takes precedence over the seed.
    graph:
        The underlying graph; only needed when ``collect_stats`` asks for
        scope edge counts.
    use_reductions / use_batch:
        Toggle the two §5 optimisations (both off reproduces SCTL;
        reductions only reproduces the paper's SCTL+).
    collect_stats:
        Record :class:`IterationStats` per iteration (slower: it counts
        scope edges and cliques); stored in ``result.stats["iterations"]``.
    paths:
        Pre-collected valid paths to reuse.  When omitted, paths are
        **streamed** off the index on every sweep (engagement, partition,
        refinement, extraction), keeping memory bounded by tree depth; the
        results are identical to the pre-collected mode because traversal
        order is deterministic.
    algorithm_name:
        Override the reported algorithm label.
    options:
        A :class:`~repro.options.RunOptions` with the cross-cutting
        knobs; the defaults leave behaviour and output byte-identical.

        * ``recorder`` gets one ``refine/iteration/<t>`` span per pass,
          ``refine/*`` counters (paths swept, cliques processed, weight
          updates), ``reductions/*`` pruning tallies, and per-iteration
          convergence telemetry: the achieved density and the L1 norm of
          the weight change.
        * ``budget`` is polled at iteration boundaries and per path
          inside a sweep.  On exhaustion the run degrades to a
          :class:`~repro.results.PartialResult` carrying the best
          subgraph achieved so far (a half-swept iteration is rolled
          back to its entry state, so resumed runs keep exact parity) —
          the result is always ``valid`` because SCTL* starts from an
          achieved maximum clique.
        * ``checkpoint`` snapshots the full refinement state (weights,
          evolving engagement, best subgraph, tallies) atomically at
          iteration boundaries whenever a save is due, force-saves it on
          exhaustion and clears it once the run completes.
        * ``resume`` restores the refinement state (validated against
          the algorithm variant, ``k`` and the vertex count) and
          continues from the next iteration.  Partition labels and
          density bounds are recomputed — they derive deterministically
          from the initial engagement, so the resumed run matches an
          uninterrupted one exactly.
        * ``parallel`` with more than one worker runs each sweep's path
          filtering and counting (phase A) over disjoint contiguous path
          shards in a process pool while the weight updates (phase B)
          are applied here in serial path order — byte-identical results
          for any worker count.  The budget is then polled per merged
          chunk instead of per path.
    """
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    opts = RunOptions.resolve(options)
    ckpt = Checkpointer.ensure(opts.checkpoint)
    name = algorithm_name or (
        "SCTL*" if (use_reductions and use_batch)
        else "SCTL+" if use_reductions
        else "SCTL(batch)" if use_batch
        else "SCTL"
    )
    engine = None
    if paths is None:
        if opts.parallel is not None and opts.parallel.enabled:
            from ..parallel.engine import PathShardEngine

            candidate = PathShardEngine(index, opts.parallel, recorder=opts.recorder)
            if candidate.has_chunks:
                engine = candidate
                paths = engine.path_view(k)
            else:
                candidate.close()
        if paths is None:
            paths = index.path_view(k)  # streaming: re-traverse per sweep
    try:
        return _sctl_star_run(
            index, k, iterations, warm_start, graph, use_reductions,
            use_batch, collect_stats, paths, name, opts.recorder,
            opts.budget, ckpt, opts.resume, engine,
        )
    finally:
        if engine is not None:
            engine.close()


def _sctl_star_run(
    index: SCTIndex,
    k: int,
    iterations: int,
    warm_start: Optional[Sequence[int]],
    graph: Optional[Graph],
    use_reductions: bool,
    use_batch: bool,
    collect_stats: bool,
    paths: Iterable[SCTPath],
    name: str,
    recorder: Recorder,
    budget: Budget,
    ckpt: Optional[Checkpointer],
    resume: bool,
    engine,
) -> DenseSubgraphResult:
    # emptiness probe: with an engine, a cheap serial peek — iterating the
    # parallel view would launch a full pooled sweep just to test for one path
    probe = index.iter_paths(k) if engine is not None else iter(paths)
    if next(probe, None) is None:
        return empty_result(k, name)
    n = index.n_vertices

    # initial achieved solution: a maximum clique straight off the index
    best_vertices = index.a_maximum_clique()
    best_count = comb(len(best_vertices), k)
    best_density = Fraction(best_count, len(best_vertices))

    seed = _validated_warm_start(warm_start, n)
    weights = seed if seed is not None else [0] * n
    partition_of: List[int] = []
    bounds = {}
    engagement: List[int] = []
    if use_reductions:
        with recorder.span("reductions/engagement"):
            engagement = _engagement_from_paths(paths, k, n)
        partition = kp_computation(
            index, k, paths=paths, options=RunOptions(recorder=recorder)
        )
        partition_of = partition.partition_of
        bounds = partition_density_bounds(
            partition, engagement, k, recorder=recorder
        )

    per_iteration: List[IterationStats] = []
    track = recorder.enabled
    total_updates = 0
    total_processed = 0
    n_paths = 0
    start_iteration = 1
    if resume and ckpt is not None:
        payload = ckpt.load(_CHECKPOINT_KIND)
        if payload is not None:
            require_match(
                payload,
                {
                    "algorithm": name,
                    "k": k,
                    "n": n,
                    "use_reductions": use_reductions,
                    "use_batch": use_batch,
                },
                _CHECKPOINT_KIND,
            )
            weights = payload["weights"]
            if use_reductions:
                engagement = payload["engagement"]
            best_vertices = payload["best_vertices"]
            best_count = payload["best_count"]
            best_density = Fraction(
                payload["best_density_num"], payload["best_density_den"]
            )
            total_updates = payload["total_updates"]
            total_processed = payload["total_processed"]
            start_iteration = payload["iteration"] + 1
            if track:
                recorder.counter("checkpoint/resumed")

    def _state(iteration: int) -> dict:
        return {
            "algorithm": name,
            "k": k,
            "n": n,
            "use_reductions": use_reductions,
            "use_batch": use_batch,
            "iteration": iteration,
            "weights": weights,
            "engagement": engagement if use_reductions else [],
            "best_vertices": best_vertices,
            "best_count": best_count,
            "best_density_num": best_density.numerator,
            "best_density_den": best_density.denominator,
            "total_updates": total_updates,
            "total_processed": total_processed,
        }

    completed = start_iteration - 1
    exhausted: Optional[str] = None
    for t in range(start_iteration, iterations + 1):
        if budget.active:
            exhausted = budget.exceeded()
            if exhausted:
                break
        # snapshot whenever a real budget is threaded, not just when it is
        # already active: a cancel (signal, fault) can arm it mid-sweep
        iter_start_weights = weights[:] if budget is not NULL_BUDGET else None
        threshold = engagement_threshold(best_density)
        stats_entry = None
        if collect_stats:
            stats_entry = _scope_snapshot(
                index, graph, k, t, n, use_reductions, engagement, threshold,
                partition_of, bounds, best_density,
            )
        new_engagement = [0] * n if use_reductions else []
        updates = 0
        processed = 0
        n_paths = 0
        pruned_connectivity = 0
        pruned_engagement = 0
        pivots_dropped = 0
        prev_weights = weights[:] if track else None
        with recorder.span(
            f"refine/iteration/{t}", observe="stage/refine_round"
        ):
            if engine is not None:
                (
                    n_paths, processed, updates, pruned_connectivity,
                    pruned_engagement, pivots_dropped, exhausted,
                ) = _parallel_refine_sweep(
                    engine, k, weights, use_reductions, use_batch,
                    engagement, threshold, partition_of, bounds,
                    best_density, new_engagement, budget,
                )
            else:
                for path in paths:
                    n_paths += 1
                    if budget.active:
                        exhausted = budget.exceeded()
                        if exhausted:
                            break
                    if use_reductions:
                        if bounds[partition_of[path.holds[0]]] <= best_density:
                            if track:
                                pruned_connectivity += 1
                            continue  # clique-connectivity reduction
                        holds = [
                            v for v in path.holds if engagement[v] >= threshold
                        ]
                        if len(holds) != len(path.holds):
                            if track:
                                pruned_engagement += 1
                            continue  # a hold left the scope: no clique survives
                        pivots = [
                            v for v in path.pivots if engagement[v] >= threshold
                        ]
                        need = k - len(holds)
                        if need < 0 or need > len(pivots):
                            if track:
                                pruned_engagement += 1
                            continue
                        if track:
                            pivots_dropped += len(path.pivots) - len(pivots)
                        count = comb(len(pivots), need)
                        for v in holds:
                            new_engagement[v] += count
                        if need >= 1:
                            pivot_count = comb(len(pivots) - 1, need - 1)
                            if pivot_count:
                                for v in pivots:
                                    new_engagement[v] += pivot_count
                    else:
                        holds, pivots = path.holds, path.pivots
                        count = path.clique_count(k)
                    processed += count
                    if use_batch:
                        updates += batch_update(weights, holds, pivots, k)
                    else:
                        for clique in SCTPath(
                            tuple(holds), tuple(pivots)
                        ).iter_cliques(k):
                            u = min(clique, key=weights.__getitem__)
                            weights[u] += 1
                            updates += 1
            if exhausted:
                # roll the half-swept iteration back to its entry state so
                # the reported weights sit exactly on an iteration boundary
                weights = iter_start_weights
                break
            if use_reductions:
                engagement = new_engagement
            # re-extract to tighten the achieved density (Line 12)
            prefix = best_prefix_from_paths(paths, weights, k)
        if prefix.density_fraction > best_density:
            best_density = prefix.density_fraction
            best_vertices = sorted(prefix.vertices)
            best_count = prefix.clique_count
        total_updates += updates
        total_processed += processed
        completed = t
        if budget.active:
            budget.tick()
        if ckpt is not None and ckpt.due(_CHECKPOINT_KIND):
            ckpt.save(_CHECKPOINT_KIND, _state(t))
            if track:
                recorder.counter("checkpoint/saves")
        logger.debug(
            "%s iteration %d/%d: %d cliques, %d weight updates, density %.6f",
            name, t, iterations, processed, updates, float(best_density),
        )
        if track:
            weight_change = sum(
                abs(w - pw) for w, pw in zip(weights, prev_weights)
            )
            recorder.counter("refine/iterations")
            recorder.counter("refine/paths_swept", n_paths)
            recorder.observe("refine/paths_per_round", n_paths)
            recorder.counter("refine/cliques_processed", processed)
            recorder.counter("refine/weight_updates", updates)
            if use_reductions:
                recorder.counter(
                    "reductions/paths_pruned_connectivity", pruned_connectivity
                )
                recorder.counter(
                    "reductions/paths_pruned_engagement", pruned_engagement
                )
                recorder.counter("reductions/pivots_dropped", pivots_dropped)
            recorder.gauge("refine/density", float(best_density))
            recorder.gauge("refine/weight_change_l1", weight_change)
            recorder.event(
                "refine_iteration",
                algorithm=name,
                iteration=t,
                density=float(best_density),
                weight_change_l1=weight_change,
                cliques_processed=processed,
                weight_updates=updates,
            )
        if stats_entry is not None:
            stats_entry.cliques_processed = processed
            stats_entry.weight_updates = updates
            stats_entry.rho = float(best_density)
            per_iteration.append(stats_entry)

    run_stats = {
        "weights": weights,
        "paths": n_paths,
        "total_weight_updates": total_updates,
        "total_cliques_processed": total_processed,
    }
    if exhausted:
        if ckpt is not None:
            # persist the last completed iteration unconditionally so a
            # resume continues exactly where this run degraded
            ckpt.save(_CHECKPOINT_KIND, _state(completed))
        if track:
            recorder.counter("budget/exhausted")
            recorder.gauge("budget/reason", exhausted)
            recorder.gauge("budget/stage", f"refine/iteration/{completed + 1}")
        upper = (
            max(max(weights) / completed, float(best_density))
            if completed
            else None
        )
        result = PartialResult(
            vertices=best_vertices,
            clique_count=best_count,
            k=k,
            algorithm=name,
            iterations=completed,
            upper_bound=upper,
            stats=run_stats,
            reason=exhausted,
            stage=f"refine/iteration/{completed + 1}",
        )
        if collect_stats:
            result.stats["iterations"] = per_iteration
        return result
    if ckpt is not None:
        ckpt.clear(_CHECKPOINT_KIND)
    upper = max(max(weights) / iterations, float(best_density))
    result = DenseSubgraphResult(
        vertices=best_vertices,
        clique_count=best_count,
        k=k,
        algorithm=name,
        iterations=iterations,
        upper_bound=upper,
        stats=run_stats,
    )
    if collect_stats:
        result.stats["iterations"] = per_iteration
    return result


def sctl_plus(
    index: SCTIndex,
    k: int,
    iterations: int = 10,
    warm_start: Optional[Sequence[int]] = None,
    graph: Optional[Graph] = None,
    collect_stats: bool = False,
    paths: Optional[Iterable[SCTPath]] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """SCTL+ — SCTL with graph reductions but per-clique weight updates.

    ``options`` is forwarded to :func:`sctl_star` unchanged.
    """
    return sctl_star(
        index,
        k,
        iterations=iterations,
        warm_start=warm_start,
        graph=graph,
        use_reductions=True,
        use_batch=False,
        collect_stats=collect_stats,
        paths=paths,
        algorithm_name="SCTL+",
        options=options,
    )


def _parallel_refine_sweep(
    engine,
    k: int,
    weights: List[int],
    use_reductions: bool,
    use_batch: bool,
    engagement: Sequence[int],
    threshold: int,
    partition_of: Sequence[int],
    bounds,
    best_density: Fraction,
    new_engagement: List[int],
    budget: Budget,
):
    """One SCTL* sweep, phase A pooled and phase B applied in order.

    The per-vertex scope tests are precomputed here (``in_scope`` /
    ``bound_ok`` boolean tables, O(n)) so the workers replicate the
    serial per-path filtering bit for bit without holding the evolving
    weight vector.  Workers return survivors in path order plus additive
    engagement deltas; this parent loop applies the weight updates over
    the merged, ordered survivor stream — the update sequence is the
    serial one, so the weights are byte-identical for any worker count.

    The budget is polled once per merged chunk; exhaustion abandons the
    sweep (the caller rolls the weights back to the iteration entry, the
    same contract as the serial per-path poll).
    """
    in_scope = None
    bound_ok = None
    if use_reductions:
        in_scope = [e >= threshold for e in engagement]
        bound_ok = [bounds[p] > best_density for p in partition_of]
    n_paths = 0
    processed = 0
    updates = 0
    pruned_connectivity = 0
    pruned_engagement = 0
    pivots_dropped = 0
    exhausted: Optional[str] = None
    for surviving, engagement_delta, tallies in engine.refine_sweep(
        k, in_scope, bound_ok
    ):
        if budget.active:
            exhausted = budget.exceeded()
            if exhausted:
                break
        for holds, pivots, count in surviving:
            processed += count
            if use_batch:
                updates += batch_update(weights, holds, pivots, k)
            else:
                for clique in SCTPath(holds, pivots).iter_cliques(k):
                    u = min(clique, key=weights.__getitem__)
                    weights[u] += 1
                    updates += 1
        if use_reductions:
            for v, delta in engagement_delta.items():
                new_engagement[v] += delta
        n_paths += tallies[0]
        pruned_connectivity += tallies[1]
        pruned_engagement += tallies[2]
        pivots_dropped += tallies[3]
    return (
        n_paths, processed, updates, pruned_connectivity,
        pruned_engagement, pivots_dropped, exhausted,
    )


def _engagement_from_paths(
    paths: Iterable[SCTPath], k: int, n: int
) -> List[int]:
    """Global ``|C_k(v, G)|`` accumulated from the collected paths."""
    engagement = [0] * n
    for path in paths:
        count = path.clique_count(k)
        if not count:
            continue
        for v in path.holds:
            engagement[v] += count
        pivot_count = path.pivot_engagement(k)
        if pivot_count:
            for v in path.pivots:
                engagement[v] += pivot_count
    return engagement


def _scope_snapshot(
    index: SCTIndex,
    graph: Optional[Graph],
    k: int,
    iteration: int,
    n: int,
    use_reductions: bool,
    engagement: Sequence[int],
    threshold: int,
    partition_of: Sequence[int],
    bounds,
    best_density: Fraction,
) -> IterationStats:
    """Measure the search scope entering this iteration (Table 4 columns)."""
    if not use_reductions:
        scope = list(range(n))
    else:
        scope = [
            v
            for v in range(n)
            if engagement[v] >= threshold and bounds[partition_of[v]] > best_density
        ]
    scope_edges = None
    if graph is not None:
        inside = set(scope)
        scope_edges = sum(
            1 for u in scope for w in graph.neighbors(u) if u < w and w in inside
        )
    scope_cliques = index.count_in_subset(k, scope)
    return IterationStats(
        iteration=iteration,
        scope_vertices=len(scope),
        scope_edges=scope_edges,
        scope_cliques=scope_cliques,
        cliques_processed=0,
        weight_updates=0,
        rho=float(best_density),
    )
