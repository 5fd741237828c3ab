"""SCTL: index-driven weight refinement (Algorithm 2).

SCTL is the KCL update rule — each k-clique grants +1 to its minimum-weight
vertex, ``T`` rounds, then return the best weight-ordered prefix — with one
decisive change: the k-cliques are *read off* the SCT*-Index paths instead
of being re-enumerated from scratch every round.  Convergence to the
optimum (for ``T -> inf``) is inherited unchanged from the KClist++
analysis, because the per-clique updates are identical.

The certified upper bound follows Remark 1: ``r(v)/T`` is a feasible
fractional clique-to-vertex weight assignment, and for the optimal ``S*``
we have ``sum_{v in S*} r(v)/T >= rho_opt * |S*|``, hence
``rho_opt <= max_v r(v)/T``.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, List, Optional, Sequence

from ..errors import InvalidParameterError
from ..obs import Recorder
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET, Budget
from ..resilience.checkpoint import Checkpointer, require_match
from ..results import DenseSubgraphResult, PartialResult
from .extraction import best_prefix_from_paths
from .sct import QueryPaths, SCTIndex, SCTPath, query_paths

__all__ = ["sctl", "empty_result"]

_CHECKPOINT_KIND = "sctl-weights"


def empty_result(k: int, algorithm: str, exact: bool = False) -> DenseSubgraphResult:
    """The canonical result when the graph contains no k-clique."""
    return DenseSubgraphResult(
        vertices=[], clique_count=0, k=k, algorithm=algorithm, exact=exact
    )


def sctl(
    index: SCTIndex,
    k: int,
    iterations: int = 10,
    warm_start: Optional[Sequence[int]] = None,
    paths: Optional[Iterable[SCTPath]] = None,
    track_convergence: bool = False,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Run SCTL for ``iterations`` rounds and extract the densest prefix.

    Parameters
    ----------
    index:
        The SCT*-Index of the graph (any threshold ``<= k``).
    k:
        Clique size (``>= 3`` in the paper's setting; ``>= 1`` accepted).
    iterations:
        Number of full passes over the k-cliques (the paper's ``T``).
    warm_start:
        Seed the weight vector from a previous run (``stats["weights"]``)
        instead of zeros — the incremental-update path re-refines the
        updated index from where the pre-update run converged, which
        typically needs far fewer passes.  Must have exactly one entry
        per vertex.  The certified upper bound ``max_v r(v)/T`` assumes
        a zero start, so with a warm start the reported ``upper_bound``
        is heuristic, not certified.  A restored checkpoint (``resume``)
        takes precedence over the seed.
    paths:
        The index's valid paths at ``k``, already collected (say one
        ``index.collect_paths(k)`` shared by several calls).  They are
        read exactly once, into the query's path table, so a one-shot
        iterator works like a list.  When omitted, one walk of the index
        fills the table and every pass reads it; a table that would
        outgrow the index is dropped and each pass walks the tree instead
        (:class:`~repro.core.sct.SCTPathTable`).
    track_convergence:
        Extract after *every* pass and record the achieved density and
        the certified upper bound per iteration (slower; used for
        convergence studies).  Stored in ``stats["density_history"]`` and
        ``stats["upper_bound_history"]``.
    options:
        A :class:`~repro.options.RunOptions` with the cross-cutting
        knobs; every default is free.

        * ``recorder`` gets per-pass ``refine/iteration/<t>`` spans,
          ``refine/*`` counters and the L1 weight-change gauge.
        * ``budget`` is polled at round boundaries and per path inside a
          round.  On exhaustion the function degrades to a
          :class:`~repro.results.PartialResult` extracted from the
          weights of the last *completed* round (a half-swept round is
          rolled back, so resumed runs keep exact parity); with no
          completed rounds the partial result is empty and flagged
          invalid.
        * ``checkpoint`` snapshots the weight vector atomically at round
          boundaries whenever a save is due, and clears it once the run
          completes.
        * ``resume`` restores the weight vector (validated against
          ``k``, the vertex count and the algorithm) and continues from
          the next round.
        * ``parallel`` with more than one worker fills the path table
          (or, above its cap, streams each pass's paths) through a
          process pool while the per-clique weight updates stay in this
          process, applied in the serial path order — the result is
          byte-identical to serial.

    Returns a :class:`DenseSubgraphResult` whose ``stats`` carry the raw
    vertex weights (``"weights"``) and the per-pass clique count
    (``"cliques_per_iteration"``).
    """
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    budget = opts.budget
    resume = opts.resume
    ckpt = Checkpointer.ensure(opts.checkpoint)
    with query_paths(index, k, paths, options=opts) as source:
        return _sctl_run(
            index, k, iterations, warm_start, source, track_convergence,
            recorder, budget, ckpt, resume,
        )


def _validated_warm_start(
    warm_start: Optional[Sequence[int]], n: int
) -> Optional[List[int]]:
    """``warm_start`` as a fresh int list, or ``None``; length-checked."""
    if warm_start is None:
        return None
    seed = [int(w) for w in warm_start]
    if len(seed) != n:
        raise InvalidParameterError(
            f"warm_start has {len(seed)} weights but the graph has "
            f"{n} vertices"
        )
    if any(w < 0 for w in seed):
        raise InvalidParameterError("warm_start weights must be non-negative")
    return seed


def _sctl_run(
    index: SCTIndex,
    k: int,
    iterations: int,
    warm_start: Optional[Sequence[int]],
    source: QueryPaths,
    track_convergence: bool,
    recorder: Recorder,
    budget: Budget,
    ckpt: Optional[Checkpointer],
    resume: bool,
) -> DenseSubgraphResult:
    n = index.n_vertices
    seed = _validated_warm_start(warm_start, n)
    n_paths = 0
    cliques_per_iteration = 0
    for holds, pivots in source:
        n_paths += 1
        if budget.active and not n_paths % 1024:
            reason = budget.exceeded()
            if reason:
                return _partial_sctl(k, reason, "refine/setup", recorder)
        need = k - len(holds)
        if need >= 0:
            cliques_per_iteration += comb(len(pivots), need)
    if not n_paths:
        return empty_result(k, "SCTL")
    track = recorder.enabled
    weights = seed if seed is not None else [0] * n
    start_round = 1
    if resume and ckpt is not None:
        payload = ckpt.load(_CHECKPOINT_KIND)
        if payload is not None:
            require_match(
                payload, {"algorithm": "SCTL", "k": k, "n": n}, _CHECKPOINT_KIND
            )
            weights = payload["weights"]
            start_round = payload["iteration"] + 1
            if track:
                recorder.counter("checkpoint/resumed")
    density_history = []
    upper_history = []
    completed = start_round - 1
    exhausted: Optional[str] = None
    for round_number in range(start_round, iterations + 1):
        if budget.active:
            exhausted = budget.exceeded()
            if exhausted:
                break
        # snapshot whenever a real budget is threaded, not just when it is
        # already active: a cancel (signal, fault) can arm it mid-sweep
        round_start = weights[:] if budget is not NULL_BUDGET else None
        prev_weights = weights[:] if track else None
        with recorder.span(
            f"refine/iteration/{round_number}", observe="stage/refine_round"
        ):
            swept = 0
            for holds, pivots in source:
                swept += 1
                if budget.active and not swept % 1024:
                    exhausted = budget.exceeded()
                    if exhausted:
                        break
                for clique in SCTPath(tuple(holds), tuple(pivots)).iter_cliques(k):
                    u = min(clique, key=weights.__getitem__)
                    weights[u] += 1
            if exhausted:
                # roll the half-swept round back to its entry state so the
                # reported weights sit exactly on a round boundary
                weights = round_start
                break
        completed = round_number
        if budget.active:
            budget.tick()
        if ckpt is not None and ckpt.due(_CHECKPOINT_KIND):
            ckpt.save(
                _CHECKPOINT_KIND,
                {
                    "algorithm": "SCTL",
                    "k": k,
                    "n": n,
                    "iteration": round_number,
                    "weights": weights,
                },
            )
            if track:
                recorder.counter("checkpoint/saves")
        if track:
            # in SCTL every clique performs exactly one +1, so the update
            # count needs no in-loop tally
            weight_change = sum(
                abs(w - pw) for w, pw in zip(weights, prev_weights)
            )
            recorder.counter("refine/iterations")
            recorder.counter("refine/paths_swept", n_paths)
            recorder.counter("refine/cliques_processed", cliques_per_iteration)
            recorder.counter("refine/weight_updates", cliques_per_iteration)
            recorder.gauge("refine/weight_change_l1", weight_change)
            recorder.event(
                "refine_iteration",
                algorithm="SCTL",
                iteration=round_number,
                weight_change_l1=weight_change,
                cliques_processed=cliques_per_iteration,
            )
        if track_convergence:
            snapshot = best_prefix_from_paths(source, weights, k)
            density_history.append(snapshot.density)
            upper_history.append(
                max(max(weights) / round_number, snapshot.density)
            )
            if track:
                recorder.gauge("refine/density", snapshot.density)
    if exhausted and not completed:
        return _partial_sctl(k, exhausted, "refine/iteration/1", recorder)
    if ckpt is not None:
        if exhausted:
            # persist the last completed round unconditionally so a resume
            # continues exactly where this run degraded
            ckpt.save(
                _CHECKPOINT_KIND,
                {
                    "algorithm": "SCTL",
                    "k": k,
                    "n": n,
                    "iteration": completed,
                    "weights": weights,
                },
            )
        else:
            ckpt.clear(_CHECKPOINT_KIND)
    prefix = best_prefix_from_paths(source, weights, k)
    upper = max(max(weights) / completed, prefix.density)
    stats = {
        "weights": weights,
        "cliques_per_iteration": cliques_per_iteration,
        "paths": n_paths,
    }
    if track_convergence:
        stats["density_history"] = density_history
        stats["upper_bound_history"] = upper_history
    if exhausted:
        if track:
            recorder.counter("budget/exhausted")
            recorder.gauge("budget/reason", exhausted)
        return PartialResult(
            vertices=sorted(prefix.vertices),
            clique_count=prefix.clique_count,
            k=k,
            algorithm="SCTL",
            iterations=completed,
            upper_bound=upper,
            stats=stats,
            reason=exhausted,
            stage=f"refine/iteration/{completed + 1}",
        )
    return DenseSubgraphResult(
        vertices=sorted(prefix.vertices),
        clique_count=prefix.clique_count,
        k=k,
        algorithm="SCTL",
        iterations=iterations,
        upper_bound=upper,
        stats=stats,
    )


def _partial_sctl(
    k: int, reason: str, stage: str, recorder: Recorder
) -> PartialResult:
    """The empty, invalid partial result for pre-refinement exhaustion."""
    if recorder.enabled:
        recorder.counter("budget/exhausted")
        recorder.gauge("budget/reason", reason)
        recorder.gauge("budget/stage", stage)
    return PartialResult(
        vertices=[],
        clique_count=0,
        k=k,
        algorithm="SCTL",
        valid=False,
        reason=reason,
        stage=stage,
    )
