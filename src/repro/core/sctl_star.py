"""SCTL+ and SCTL*: weight refinement with reductions and batching (§5.3).

Algorithm 5 of the paper.  Relative to plain SCTL, two optimisations apply
per iteration, each independently switchable so the benchmark suite can
run the paper's SCTL+ / SCTL* ladder:

* ``use_reductions`` — clique-connectivity pruning (skip any path whose
  partition's Lemma 3 density bound is dominated by the best density found
  so far) and clique-engagement pruning (skip paths with an out-of-scope
  hold, drop out-of-scope pivots; Lemma 4), with the scope's engagement
  counted over the surviving paths, as in Lines 9-10.  The scope only
  shrinks from round to round, so a query whose path table is kept holds
  it in a :class:`~repro.core.reductions.RowStore`: each round removes
  only the vertices that left, and sweeps only the surviving rows.  A
  query that streams filters every row again
  (:func:`~repro.core.sct.scope_rows`).
* ``use_batch`` — distribute each path's clique weight through
  Algorithm 4's BatchUpdate (:mod:`repro.core.batch`) instead of visiting
  cliques individually.

The best density found so far is always an *achieved* density (it starts
from a maximum clique fetched off the index and is re-extracted from the
weights each iteration), so both reductions are lossless for the optimum.
With both switches off the rounds are SCTL's, but the answer is still
this rule's best prefix over every round, seeded with a maximum clique,
so it can differ from :func:`~repro.core.sctl.sctl`'s.  That function runs
the same round loop (:func:`_sctl_star_run`) under Algorithm 2's answer
rule instead: the prefix of the last completed round's weights.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError
from ..graph.graph import Graph
from ..obs import Recorder
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET, Budget
from ..resilience.checkpoint import Checkpointer, require_match
from ..results import DenseSubgraphResult, PartialResult
from .batch import _distribute
from .extraction import best_prefix_from_paths
from .reductions import (
    RowStore,
    engagement_threshold,
    kp_computation,
    live_partitions,
    partition_density_bounds,
)
from .sct import (
    QueryPaths,
    SCTIndex,
    SCTPath,
    add_engagement,
    query_paths,
    scope_rows,
)
from .sctl import _validated_warm_start, empty_result

__all__ = ["IterationStats", "sctl_star", "sctl_plus"]

logger = logging.getLogger(__name__)

_CHECKPOINT_KIND = "sctl-star-weights"
_SCTL_CHECKPOINT_KIND = "sctl-weights"


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
        Toggle the two §5 optimisations (reductions only is the paper's
        SCTL+).  Both off runs SCTL's rounds, but not its answer: this
        rule seeds the best density with a maximum clique and re-extracts
        every round, so the result can differ from
        :func:`~repro.core.sctl.sctl`'s.
    collect_stats:
        Record :class:`IterationStats` per iteration (slower: it counts
        scope edges and cliques); stored in ``result.stats["iterations"]``.
    paths:
        The index's valid paths at ``k``, already collected.  They are
        read exactly once, into the query's path table, so a one-shot
        iterator works like a list.  When omitted, one walk of the index
        fills the table, and every sweep — engagement, partition,
        refinement, extraction and the ``collect_stats`` scope counts —
        reads it; a table that would outgrow the index is dropped and
        each sweep walks the tree instead
        (:class:`~repro.core.sct.SCTPathTable`).  The answer is the same
        either way.
    algorithm_name:
        Override the reported algorithm label.
    options:
        A :class:`~repro.options.RunOptions` with the cross-cutting
        knobs; the defaults leave behaviour and output byte-identical.

        * ``recorder`` gets one ``refine/iteration/<t>`` span per pass,
          ``refine/*`` counters (paths in scope of a sweep, rows it
          actually swept, cliques processed, weight updates),
          ``reductions/*`` pruning tallies, and per-iteration
          convergence telemetry: the achieved density and the L1 norm of
          the weight change.
        * ``budget`` is polled at iteration boundaries, when a sweep
          starts and per row it sweeps.  On exhaustion the run degrades
          to a :class:`~repro.results.PartialResult` carrying the best
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
        * ``parallel`` with more than one worker fills the path table
          from the pool's ordered stream.  A query whose table is kept
          sweeps its row store in this process every round.  One that
          streams runs each round's path filtering and counting (phase
          A) over disjoint contiguous path shards in the pool, while the
          weight updates (phase B) are applied here in serial path
          order.  Results are byte-identical for any worker count.
    """
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    seed = _validated_warm_start(warm_start, index.n_vertices)
    opts = RunOptions.resolve(options)
    name = algorithm_name or (
        "SCTL*" if (use_reductions and use_batch)
        else "SCTL+" if use_reductions
        else "SCTL(batch)" if use_batch
        else "SCTL"
    )
    with query_paths(index, k, paths, options=opts) as source:
        return _sctl_star_run(
            index, k, iterations, seed, graph, use_reductions, use_batch,
            collect_stats, source, name, opts.recorder, opts.budget,
            Checkpointer.ensure(opts.checkpoint), opts.resume,
        )[0]


def _sctl_star_run(
    index: SCTIndex,
    k: int,
    iterations: int,
    seed: Optional[List[int]],
    graph: Optional[Graph],
    use_reductions: bool,
    use_batch: bool,
    collect_stats: bool,
    source: QueryPaths,
    name: str,
    recorder: Recorder,
    budget: Budget,
    ckpt: Optional[Checkpointer],
    resume: bool,
    state: Optional[dict] = None,
    plain_sctl: bool = False,
    track_convergence: bool = False,
) -> Tuple[DenseSubgraphResult, Optional[dict]]:
    """The refinement round loop behind :func:`sctl_star` and
    :func:`~repro.core.sctl.sctl`, over an open path source.

    ``seed`` is a validated warm start (a fresh list the run may write
    into).  ``plain_sctl`` selects Algorithm 2's answer rule: no
    maximum-clique seed, no extraction between rounds unless
    ``track_convergence`` records one per round, and the answer is the
    prefix of the last completed round's weights — empty and invalid
    when no round completed.  It checkpoints as ``sctl-weights``.

    Returns the result and, when every iteration ran, the final round
    state — what a checkpoint holds.  Given such a ``state`` (of the same
    variant, ``k`` and source), the run continues after its iteration
    instead of starting at 1, through the checkpoint-resume restore: a
    round is a deterministic function of that state, so the answer is
    byte-identical to a fresh run of ``iterations``.
    """
    if source.empty:
        return empty_result(k, name), None
    n = index.n_vertices
    # phase A is pooled only when the query streams (a kept table closed
    # its engine): a pooled walk ships every row to this process anyway,
    # while a kept table is read faster here
    engine = source.engine
    kind = _SCTL_CHECKPOINT_KIND if plain_sctl else _CHECKPOINT_KIND
    identity = {"algorithm": name, "k": k, "n": n}
    if not plain_sctl:
        identity.update(use_reductions=use_reductions, use_batch=use_batch)

    best_vertices: List[int] = []
    best_count = 0
    best_density = Fraction(0)
    if not plain_sctl:
        # initial achieved solution: a maximum clique straight off the index
        best_vertices = index.a_maximum_clique()
        best_count = comb(len(best_vertices), k)
        best_density = Fraction(best_count, len(best_vertices))

    weights = seed if seed is not None else [0] * n
    partition_of: List[int] = []
    bounds = {}
    engagement: List[int] = []
    # a kept table gets a row store that keeps the scope between rounds; a
    # stream is filtered again each round
    store: Optional[RowStore] = None
    if use_reductions:
        with recorder.span("reductions/engagement"):
            if source.table is not None:
                store = RowStore(source.table, k, n)
                engagement = list(store.counts)
            else:
                engagement = [0] * n
                add_engagement(source, k, engagement)
        partition = kp_computation(
            index, k, paths=source, options=RunOptions(recorder=recorder)
        )
        partition_of = partition.partition_of
        bounds = partition_density_bounds(
            partition, engagement, k, recorder=recorder
        )
    track = recorder.enabled
    rows_per_partition = None
    if store is not None and track:
        # the rows of each partition, for the connectivity tally
        rows_per_partition = Counter(
            partition_of[store.vertices[s]] for s in store.start
        )

    per_iteration: List[IterationStats] = []
    density_history: List[float] = []
    upper_history: List[float] = []
    total_updates = 0
    total_processed = 0
    start_iteration = 1
    payload = state
    if payload is None and resume and ckpt is not None:
        payload = ckpt.load(kind)
        if payload is not None:
            require_match(payload, identity, kind)
            if track:
                recorder.counter("checkpoint/resumed")
    if payload is not None:
        # a copy: a continued run must not write into the last run's result
        weights = list(payload["weights"])
        start_iteration = payload["iteration"] + 1
        if not plain_sctl:
            if use_reductions:
                engagement = payload["engagement"]
            best_vertices = payload["best_vertices"]
            best_count = payload["best_count"]
            best_density = Fraction(
                payload["best_density_num"], payload["best_density_den"]
            )
            total_updates = payload["total_updates"]
            total_processed = payload["total_processed"]

    def _state(iteration: int) -> dict:
        snapshot = dict(identity, iteration=iteration, weights=weights)
        if not plain_sctl:
            snapshot.update(
                engagement=engagement if use_reductions else [],
                best_vertices=best_vertices,
                best_count=best_count,
                best_density_num=best_density.numerator,
                best_density_den=best_density.denominator,
                total_updates=total_updates,
                total_processed=total_processed,
            )
        return snapshot

    extract_each_round = not plain_sctl or track_convergence
    prefix = None  # the extraction from the last completed round's weights
    paths_per_round = 0
    cliques_per_round = 0
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
        in_scope = live = None
        if use_reductions:
            threshold = engagement_threshold(best_density)
            live = live_partitions(partition_of, bounds, best_density)
            in_scope = [e >= threshold for e in engagement]
        stats_entry = None
        if collect_stats:
            stats_entry = _scope_snapshot(
                source, graph, k, t, n, use_reductions, in_scope, live,
                best_density,
            )
        prev_weights = weights[:] if track else None
        with recorder.span(
            f"refine/iteration/{t}", observe="stage/refine_round"
        ):
            tallies = [0] * 5
            new_engagement = None
            if store is not None:
                # the scope only shrinks: the vertices that left it since
                # the last round leave the store, which then holds exactly
                # the rows that survive this round
                store.remove([
                    v for v in compress(range(n), store.inside)
                    if not (in_scope[v] and live[v])
                ])
                rows = store
            else:
                new_engagement = [0] * n if use_reductions else None
                rows = (
                    _pooled_rows(
                        engine, k, in_scope, live, new_engagement, tallies
                    )
                    if engine is not None
                    else scope_rows(
                        source, k, tallies, in_scope, live, new_engagement
                    )
                )
            updates, swept, exhausted = _sweep(
                rows, k, weights, use_batch, budget
            )
            if store is not None:
                n_paths = len(store.start)
                processed = store.cliques
                rows_swept = swept
                pruned_connectivity = sum(
                    count for root, count in rows_per_partition.items()
                    if not live[root]
                ) if track else 0
                pruned_engagement = n_paths - pruned_connectivity - len(store)
                pivots_dropped = store.dropped
            else:
                n_paths, pruned_connectivity, pruned_engagement = tallies[:3]
                pivots_dropped, processed = tallies[3:]
                rows_swept = n_paths
            if exhausted:
                # roll the half-swept iteration back to its entry state so
                # the reported weights sit exactly on an iteration boundary
                weights = iter_start_weights
                break
            if use_reductions:
                engagement = (
                    new_engagement if store is None else list(store.counts)
                )
            if extract_each_round:
                # re-extract to tighten the achieved density (Line 12)
                prefix = best_prefix_from_paths(source, weights, k)
        rho = None
        if not plain_sctl:
            if prefix.density_fraction > best_density:
                best_density = prefix.density_fraction
                best_vertices = sorted(prefix.vertices)
                best_count = prefix.clique_count
            rho = float(best_density)
        elif track_convergence:
            rho = prefix.density
            density_history.append(rho)
            upper_history.append(max(max(weights) / t, rho))
        total_updates += updates
        total_processed += processed
        paths_per_round = n_paths
        cliques_per_round = processed
        completed = t
        if budget.active:
            budget.tick()
        if ckpt is not None and ckpt.due(kind):
            ckpt.save(kind, _state(t))
            if track:
                recorder.counter("checkpoint/saves")
        logger.debug(
            "%s iteration %d/%d: %d cliques, %d weight updates, density %s",
            name, t, iterations, processed, updates, rho,
        )
        if track:
            weight_change = sum(
                abs(w - pw) for w, pw in zip(weights, prev_weights)
            )
            recorder.counter("refine/iterations")
            recorder.counter("refine/paths_swept", n_paths)
            recorder.counter("refine/rows_swept", rows_swept)
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
            if rho is not None:
                recorder.gauge("refine/density", rho)
            recorder.gauge("refine/weight_change_l1", weight_change)
            recorder.event(
                "refine_iteration",
                algorithm=name,
                iteration=t,
                **({} if rho is None else {"density": rho}),
                weight_change_l1=weight_change,
                cliques_processed=processed,
                weight_updates=updates,
            )
        if stats_entry is not None:
            stats_entry.cliques_processed = processed
            stats_entry.weight_updates = updates
            stats_entry.rho = rho
            per_iteration.append(stats_entry)

    stage = f"refine/iteration/{completed + 1}"
    if exhausted:
        if track:
            recorder.counter("budget/exhausted")
            recorder.gauge("budget/reason", exhausted)
            recorder.gauge("budget/stage", stage)
        if plain_sctl and not completed:
            # Algorithm 2 has no answer before its first round
            return PartialResult(
                vertices=[], clique_count=0, k=k, algorithm=name,
                valid=False, reason=exhausted, stage=stage,
            ), None
        if ckpt is not None:
            # persist the last completed iteration unconditionally so a
            # resume continues exactly where this run degraded
            ckpt.save(kind, _state(completed))
    elif ckpt is not None:
        ckpt.clear(kind)
    if plain_sctl:
        if prefix is None:
            prefix = best_prefix_from_paths(source, weights, k)
        best_vertices = sorted(prefix.vertices)
        best_count = prefix.clique_count
        best_density = prefix.density_fraction
        run_stats = {
            "weights": weights,
            "cliques_per_iteration": cliques_per_round,
            "paths": paths_per_round,
        }
        if track_convergence:
            run_stats["density_history"] = density_history
            run_stats["upper_bound_history"] = upper_history
    else:
        run_stats = {
            "weights": weights,
            "paths": paths_per_round,
            "total_weight_updates": total_updates,
            "total_cliques_processed": total_processed,
        }
    if collect_stats:
        run_stats["iterations"] = per_iteration
    upper = (
        max(max(weights) / completed, float(best_density))
        if completed
        else None
    )
    if exhausted:
        result = PartialResult(
            vertices=best_vertices,
            clique_count=best_count,
            k=k,
            algorithm=name,
            iterations=completed,
            upper_bound=upper,
            stats=run_stats,
            reason=exhausted,
            stage=stage,
        )
        return result, None
    result = DenseSubgraphResult(
        vertices=best_vertices,
        clique_count=best_count,
        k=k,
        algorithm=name,
        iterations=iterations,
        upper_bound=upper,
        stats=run_stats,
    )
    return result, _state(completed)


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


def _sweep(rows, k: int, weights: List[int], use_batch: bool, budget: Budget):
    """Phase B of one round: one unit per k-clique of every row of
    ``rows``, in order.

    A row with one clique (``t = 0``, or every kept pivot needed) gets its
    single +1 here, to the first lightest hold when it is strictly below
    every pivot, else to the first lightest pivot; a row with more goes to
    Algorithm 4's ``_distribute`` — or, without ``use_batch``, to its
    cliques one by one.  The budget is polled once when the sweep starts
    and once per row.  Returns the weight writes, the rows swept and the
    exhaustion reason, ``None`` when the sweep completed.
    """
    updates = 0
    swept = 0
    if budget.active:
        exhausted = budget.exceeded()
        if exhausted:
            return updates, swept, exhausted
    weight = weights.__getitem__
    for holds, pivots in rows:
        if budget.active:
            exhausted = budget.exceeded()
            if exhausted:
                return updates, swept, exhausted
        swept += 1
        t = k - len(holds)
        if not use_batch:
            for clique in SCTPath(tuple(holds), tuple(pivots)).iter_cliques(k):
                u = min(clique, key=weight)
                weights[u] += 1
                updates += 1
        elif t == 0 or t == len(pivots):
            v = min(holds, key=weight)
            if t:
                u = min(pivots, key=weight)
                if weights[u] <= weights[v]:
                    v = u
            weights[v] += 1
            updates += 1
        else:
            updates += _distribute(
                weights, list(holds), list(pivots), k, comb(len(pivots), t)
            )
    return updates, swept, None


def _pooled_rows(engine, k: int, in_scope, live, counts, tallies: List[int]):
    """The rows of a streamed round, filtered in the pool (phase A).

    Each worker runs :func:`~repro.core.sct.scope_rows` over a contiguous
    path shard and returns its survivors in path order, its engagement
    and its tallies; merged in chunk order they are the serial stream's,
    so the weights phase B writes from them are byte-identical for any
    worker count.
    """
    for surviving, engagement, chunk_tallies in engine.refine_sweep(
        k, in_scope, live
    ):
        if counts is not None:
            for v, delta in engagement.items():
                counts[v] += delta
        for i, tally in enumerate(chunk_tallies):
            tallies[i] += tally
        yield from surviving


def _scope_snapshot(
    source: QueryPaths,
    graph: Optional[Graph],
    k: int,
    iteration: int,
    n: int,
    use_reductions: bool,
    in_scope: Optional[List[bool]],
    live: Optional[List[bool]],
    best_density: Fraction,
) -> IterationStats:
    """Measure the search scope entering this iteration (Table 4 columns)."""
    if use_reductions:
        flags = [a and b for a, b in zip(in_scope, live)]
    else:
        flags = [True] * n
    scope = [v for v in range(n) if flags[v]]
    scope_edges = None
    if graph is not None:
        scope_edges = sum(
            1 for u in scope for w in graph.neighbors(u) if u < w and flags[w]
        )
    tallies = [0] * 5
    for _ in scope_rows(source, k, tallies, flags):
        pass
    return IterationStats(
        iteration=iteration,
        scope_vertices=len(scope),
        scope_edges=scope_edges,
        scope_cliques=tallies[4],
        cliques_processed=0,
        weight_updates=0,
        rho=float(best_density),
    )
