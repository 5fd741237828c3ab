"""SCTL: index-driven weight refinement (Algorithm 2).

SCTL is the KCL update rule — each k-clique grants +1 to its minimum-weight
vertex, ``T`` rounds, then return the best weight-ordered prefix — with one
decisive change: the k-cliques are *read off* the SCT*-Index paths instead
of being re-enumerated from scratch every round.  Convergence to the
optimum (for ``T -> inf``) is inherited unchanged from the KClist++
analysis, because the per-clique updates are identical.

The rounds run on SCTL*'s round loop (:mod:`repro.core.sctl_star`) with
both of its optimisations off, under Algorithm 2's answer rule: no
maximum-clique seed, and one extraction, from the last completed round's
weights.

The certified upper bound follows Remark 1: ``r(v)/T`` is a feasible
fractional clique-to-vertex weight assignment, and for the optimal ``S*``
we have ``sum_{v in S*} r(v)/T >= rho_opt * |S*|``, hence
``rho_opt <= max_v r(v)/T``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..errors import InvalidParameterError
from ..options import RunOptions
from ..resilience.checkpoint import Checkpointer
from ..results import DenseSubgraphResult
from .sct import SCTIndex, SCTPath, query_paths

__all__ = ["sctl", "empty_result"]


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
          ``refine/*`` counters, the ``refine/paths_per_round``
          histogram and the L1 weight-change gauge.
        * ``budget`` is polled at round boundaries, when a round's
          sweep starts and per path it sweeps.  On exhaustion the
          function degrades to a :class:`~repro.results.PartialResult`
          extracted from the weights of the last *completed* round (a
          half-swept round is rolled back, so resumed runs keep exact
          parity); with no completed rounds the partial result is empty
          and flagged invalid.
        * ``checkpoint`` snapshots the weight vector atomically at round
          boundaries whenever a save is due, and clears it once the run
          completes.
        * ``resume`` restores the weight vector (validated against
          ``k``, the vertex count and the algorithm) and continues from
          the next round.
        * ``parallel`` with more than one worker fills the path table
          through a process pool.  A kept table is then read in this
          process every pass; a query that streams walks each pass's
          paths in the pool while the per-clique weight updates stay in
          this process, applied in the serial path order.  The result is
          byte-identical to serial.

    Returns a :class:`DenseSubgraphResult` whose ``stats`` carry the raw
    vertex weights (``"weights"``) and the last completed pass's clique
    and path counts (``"cliques_per_iteration"``, ``"paths"``).
    """
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    seed = _validated_warm_start(warm_start, index.n_vertices)
    opts = RunOptions.resolve(options)
    # imported here: sctl_star imports this module's helpers
    from .sctl_star import _sctl_star_run

    with query_paths(index, k, paths, options=opts) as source:
        return _sctl_star_run(
            index, k, iterations, seed, graph=None, use_reductions=False,
            use_batch=False, collect_stats=False, source=source, name="SCTL",
            recorder=opts.recorder, budget=opts.budget,
            ckpt=Checkpointer.ensure(opts.checkpoint), resume=opts.resume,
            plain_sctl=True, track_convergence=track_convergence,
        )[0]


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
