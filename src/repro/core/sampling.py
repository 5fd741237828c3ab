"""SCTL*-Sample: sampling-based approximation (Algorithm 6, §6.1).

The three stages of the paper:

1. **Sampling** — allocate the sample budget across root-to-leaf paths
   proportionally to each path's clique count (systematic rounding keeps
   the total exact), then draw that many *distinct* k-cliques per path by
   unranking uniformly random combination indices — no path ever
   enumerates cliques it does not hand out.
2. **Weight refinement** — run the KCL update rule on the sampled cliques
   for ``T`` iterations, with the Lemma 4 clique-engagement reduction
   applied inside the sampled subgraph.
3. **Recovery** — extract the best prefix of the sampled subgraph, then
   compute its *true* k-clique density in the original graph by counting
   it over the index's paths (Lemma 2) — again without enumerating cliques.

The returned density is therefore measured on the input graph even though
only a sample of cliques was ever visited.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import BudgetExhausted, InvalidParameterError
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET
from ..results import DenseSubgraphResult, PartialResult
from .extraction import best_prefix_from_cliques
from .reductions import engagement_threshold
from .sct import (
    QueryPaths,
    SCTIndex,
    SCTPath,
    SCTPathTable,
    query_paths,
    scope_flags,
    scope_rows,
)
from .sctl import empty_result

__all__ = ["sctl_star_sample", "sample_k_cliques"]


def _unrank_combination(rank: int, m: int, t: int) -> Tuple[int, ...]:
    """The ``rank``-th t-subset of ``range(m)`` in lexicographic order."""
    result: List[int] = []
    x = 0
    remaining = t
    while remaining:
        # count subsets starting with x: C(m - x - 1, remaining - 1)
        block = comb(m - x - 1, remaining - 1)
        if rank < block:
            result.append(x)
            remaining -= 1
        else:
            rank -= block
        x += 1
    return tuple(result)


def _sample_from_row(
    holds: Sequence[int],
    pivots: Sequence[int],
    k: int,
    want: int,
    rng: random.Random,
) -> List[Tuple[int, ...]]:
    """``want`` distinct k-cliques of one path, uniformly at random."""
    need = k - len(holds)
    m = len(pivots)
    total = comb(m, need)
    want = min(want, total)
    if want <= 0:
        return []
    holds = tuple(holds)
    if need == 0:
        return [holds]
    ranks = rng.sample(range(total), want)  # distinct ranks, uniform
    cliques = []
    for rank in ranks:
        chosen = _unrank_combination(rank, m, need)
        cliques.append(holds + tuple(pivots[i] for i in chosen))
    return cliques


def sample_k_cliques(
    paths: Iterable[SCTPath],
    k: int,
    sample_size: int,
    rng: random.Random,
    options: Optional[RunOptions] = None,
) -> List[Tuple[int, ...]]:
    """Stage 1: a proportional, distinct-per-path sample of k-cliques.

    Path ``P`` receives a ``|C_k(P)| * sample_size / |C_k(G)|`` share of
    the budget; systematic rounding (floor of the running product) makes
    the shares sum to ``sample_size`` exactly.  If the budget covers every
    clique, all cliques are returned.

    ``paths`` — a query's path source, or any iterable of
    :class:`~repro.core.sct.SCTPath`, which is first read once into a path
    table — is swept at most twice (once for the global count, once to
    allocate).

    ``options`` (a :class:`~repro.options.RunOptions`) applies two knobs;
    the checkpoint and parallel knobs do not apply here (``paths`` is
    given by the caller, who decides how it is produced):

    * an enabled ``recorder`` gets a ``sample/draw`` span plus counters
      for the clique population, the paths that received samples, and the
      cliques actually drawn;
    * a ``budget`` is polled per path; on exhaustion the partially drawn
      sample is useless (its shares no longer sum correctly), so this
      function raises :class:`~repro.errors.BudgetExhausted` and the
      caller degrades.
    """
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    budget = opts.budget
    if not isinstance(paths, (QueryPaths, SCTPathTable)):
        paths = SCTPathTable.pack(paths)
    with recorder.span("sample/draw"):
        total = 0
        seen = 0
        for holds, pivots in paths:
            seen += 1
            if budget.active and not seen % 1024:
                budget.check("sample/draw")
            need = k - len(holds)
            if need >= 0:
                total += comb(len(pivots), need)
        if total == 0:
            return []
        if recorder.enabled:
            recorder.counter("sample/clique_population", total)
        if sample_size >= total:
            out = []
            seen = 0
            for holds, pivots in paths:
                seen += 1
                if budget.active and not seen % 1024:
                    budget.check("sample/draw")
                out.extend(SCTPath(tuple(holds), tuple(pivots)).iter_cliques(k))
            if recorder.enabled:
                recorder.counter("sample/cliques_drawn", len(out))
            return out
        out = []
        accumulated = 0
        paths_sampled = 0
        seen = 0
        for holds, pivots in paths:
            seen += 1
            if budget.active and not seen % 1024:
                budget.check("sample/draw")
            need = k - len(holds)
            count = comb(len(pivots), need) if need >= 0 else 0
            if not count:
                continue
            want = (accumulated + count) * sample_size // total - (
                accumulated * sample_size // total
            )
            accumulated += count
            if want:
                out.extend(_sample_from_row(holds, pivots, k, want, rng))
                paths_sampled += 1
            if len(out) >= sample_size:
                break
        if recorder.enabled:
            recorder.counter("sample/paths_sampled", paths_sampled)
            recorder.counter("sample/cliques_drawn", len(out))
        return out


def sctl_star_sample(
    index: SCTIndex,
    k: int,
    sample_size: int,
    iterations: int = 10,
    seed: int = 0,
    use_reduction: bool = True,
    paths: Optional[Iterable[SCTPath]] = None,
    options: Optional[RunOptions] = None,
) -> DenseSubgraphResult:
    """Run SCTL*-Sample (Algorithm 6).

    Parameters
    ----------
    index:
        SCT*-Index (a partial SCT*-k'-Index works too and, per §6.1, still
        yields reasonable approximations for ``k`` below the threshold as
        long as ``k >= k'`` is met for the listing itself).
    k:
        Clique size.
    sample_size:
        The paper's ``sigma`` — number of k-cliques to sample.
    iterations:
        Refinement passes ``T`` over the sample.
    seed:
        RNG seed; runs are fully reproducible.
    use_reduction:
        Apply the clique-engagement reduction inside the sampled subgraph.
    paths:
        The index's valid paths at ``k``, already collected.  They are
        read exactly once, into the query's path table, so a one-shot
        iterator works like a list.  When omitted, one walk of the index
        fills the table, which the draw's two sweeps and the recovery
        count read; a table that would outgrow the index is dropped and
        each of them walks the tree instead.  The drawn sample is the
        same for the same seed either way.
    options:
        A :class:`~repro.options.RunOptions`; checkpoint/resume do not
        apply to sampling and are ignored.

        * ``recorder`` gets ``sample/draw``, ``sample/refine`` and
          ``sample/recover`` spans with draw/visit counters and the
          sampled vs. recovered density gauges.
        * ``budget`` exhaustion during the draw stage yields an *invalid*
          :class:`~repro.results.PartialResult` (a partial sample's
          shares are biased, so nothing usable exists yet); exhaustion
          during refinement rolls the half-swept pass back and degrades
          to a *valid* partial result — recovery still measures the true
          density of the extracted prefix on the original graph.
        * ``parallel`` fills the path table (or, above its cap, runs the
          two drawing sweeps) through a process pool.  The paths arrive
          in serial order, so the drawn sample — and everything
          downstream — is identical for any worker count and the same
          seed.
    """
    if sample_size < 1:
        raise InvalidParameterError(f"sample_size must be >= 1, got {sample_size}")
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    opts = RunOptions.resolve(options)
    # §6.1: a partial SCT*-k'-Index may be queried below its threshold;
    # the sample then misses cliques in pruned subtrees, but "most
    # k-cliques in the densest subgraph come from larger cliques"
    partial_approximation = not index.supports_k(k) and k >= 1
    source = query_paths(
        index, k, paths, enforce_support=not partial_approximation,
        options=opts,
    )
    return _sctl_star_sample_run(
        index, k, sample_size, iterations, seed, use_reduction, source, opts
    )


def _sctl_star_sample_run(
    index: SCTIndex,
    k: int,
    sample_size: int,
    iterations: int,
    seed: int,
    use_reduction: bool,
    source: QueryPaths,
    opts: RunOptions,
) -> DenseSubgraphResult:
    """The three stages behind :func:`sctl_star_sample`, over an open
    path source; its engine is closed once the draw is done, and its
    table stays readable for the caller."""
    recorder = opts.recorder
    budget = opts.budget
    rng = random.Random(seed)
    try:
        sampled = sample_k_cliques(source, k, sample_size, rng, options=opts)
    except BudgetExhausted as exc:
        if recorder.enabled:
            recorder.counter("budget/exhausted")
            recorder.gauge("budget/reason", exc.reason)
            recorder.gauge("budget/stage", "sample/draw")
        return PartialResult(
            vertices=[],
            clique_count=0,
            k=k,
            algorithm="SCTL*-Sample",
            valid=False,
            reason=exc.reason,
            stage="sample/draw",
        )
    finally:
        # the engine only feeds the draw stage; stages 2-3 work on the
        # materialised sample, and recovery reads the table
        source.close()
    if not sampled:
        return empty_result(k, "SCTL*-Sample")
    n = index.n_vertices

    # stage 2: weight refinement on the sampled subgraph
    exhausted: Optional[str] = None
    completed = 0
    with recorder.span("sample/refine"):
        weights = [0] * n
        engagement = [0] * n
        for clique in sampled:
            for v in clique:
                engagement[v] += 1
        sampled_vertices = sorted({v for c in sampled for v in c})
        rho_sample = Fraction(0)
        visited_total = 0
        prefix = None  # the extraction from the last completed pass
        for _ in range(iterations):
            if budget.active:
                exhausted = budget.exceeded()
                if exhausted:
                    break
            # snapshot whenever a real budget is threaded, not just when it
            # is already active: a cancel (signal, fault) can arm it mid-pass
            iter_weights = weights[:] if budget is not NULL_BUDGET else None
            iter_visited = visited_total
            threshold = (
                engagement_threshold(rho_sample)
                if use_reduction and rho_sample > 0
                else 0
            )
            new_engagement = [0] * n if use_reduction else engagement
            engagement_of = engagement.__getitem__
            weight_of = weights.__getitem__
            swept = 0
            for clique in sampled:
                swept += 1
                if budget.active and not swept % 4096:
                    exhausted = budget.exceeded()
                    if exhausted:
                        break
                if threshold and min(map(engagement_of, clique)) < threshold:
                    continue
                u = min(clique, key=weight_of)
                weights[u] += 1
                visited_total += 1
                if use_reduction:
                    for v in clique:
                        new_engagement[v] += 1
            if exhausted:
                # roll the half-swept pass back to its entry state
                weights = iter_weights
                visited_total = iter_visited
                break
            engagement = new_engagement
            prefix = best_prefix_from_cliques(
                sampled, weights, restrict_to=sampled_vertices
            )
            if prefix.density_fraction > rho_sample:
                rho_sample = prefix.density_fraction
            completed += 1
            if budget.active:
                budget.tick()
        if recorder.enabled:
            recorder.counter("sample/clique_visits", visited_total)
            recorder.counter("sample/vertices", len(sampled_vertices))
            recorder.gauge("sample/sample_density", float(rho_sample))

    # stage 3: recovery of the true density through the index; a rolled
    # back pass restores the last completed pass's weights, so that
    # pass's prefix still applies
    with recorder.span("sample/recover"):
        if prefix is None:
            prefix = best_prefix_from_cliques(
                sampled, weights, restrict_to=sampled_vertices
            )
        chosen = sorted(prefix.vertices)
        if not chosen:
            if exhausted:
                return PartialResult(
                    vertices=[],
                    clique_count=0,
                    k=k,
                    algorithm="SCTL*-Sample",
                    valid=False,
                    reason=exhausted,
                    stage="sample/refine",
                )
            return empty_result(k, "SCTL*-Sample")
        tallies = [0] * 5
        for _ in scope_rows(source, k, tallies, scope_flags(n, chosen)):
            pass
        true_count = tallies[4]
        if recorder.enabled and chosen:
            recorder.gauge(
                "sample/recovered_density", true_count / len(chosen)
            )
    run_stats = {
        "sampled_cliques": len(sampled),
        "sampled_vertices": len(sampled_vertices),
        "sample_density": float(rho_sample),
        "clique_visits": visited_total,
        "weights": weights,
        "partial_index_approximation": not source.enforce_support,
    }
    if exhausted:
        if recorder.enabled:
            recorder.counter("budget/exhausted")
            recorder.gauge("budget/reason", exhausted)
            recorder.gauge("budget/stage", "sample/refine")
        return PartialResult(
            vertices=chosen,
            clique_count=true_count,
            k=k,
            algorithm="SCTL*-Sample",
            iterations=completed,
            stats=run_stats,
            reason=exhausted,
            stage="sample/refine",
        )
    return DenseSubgraphResult(
        vertices=chosen,
        clique_count=true_count,
        k=k,
        algorithm="SCTL*-Sample",
        iterations=iterations,
        stats=run_stats,
    )
