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
   compute its *true* k-clique density in the original graph through
   :meth:`SCTIndex.count_in_subset` — again without enumerating cliques.

The returned density is therefore measured on the input graph even though
only a sample of cliques was ever visited.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Iterable, List, Optional, Tuple

from ..errors import BudgetExhausted, InvalidParameterError
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET
from ..results import DenseSubgraphResult, PartialResult
from .extraction import best_prefix_from_cliques
from .reductions import engagement_threshold
from .sct import SCTIndex, SCTPath
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


def _sample_from_path(
    path: SCTPath, k: int, want: int, rng: random.Random
) -> List[Tuple[int, ...]]:
    """``want`` distinct k-cliques of ``path``, uniformly at random."""
    need = k - len(path.holds)
    m = len(path.pivots)
    total = comb(m, need)
    want = min(want, total)
    if want <= 0:
        return []
    if need == 0:
        return [path.holds]
    pivots = path.pivots
    ranks = rng.sample(range(total), want)  # distinct ranks, uniform
    cliques = []
    for rank in ranks:
        chosen = _unrank_combination(rank, m, need)
        cliques.append(path.holds + tuple(pivots[i] for i in chosen))
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

    ``paths`` is swept at most twice (once for the global count, once to
    allocate), so a streaming :class:`~repro.core.sct.SCTPathView` works as
    well as a materialised list and draws the identical sample.

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
    with recorder.span("sample/draw"):
        total = 0
        seen = 0
        for p in paths:
            seen += 1
            if budget.active and not seen % 1024:
                budget.check("sample/draw")
            total += p.clique_count(k)
        if total == 0:
            return []
        if recorder.enabled:
            recorder.counter("sample/clique_population", total)
        if sample_size >= total:
            out = []
            seen = 0
            for p in paths:
                seen += 1
                if budget.active and not seen % 1024:
                    budget.check("sample/draw")
                out.extend(p.iter_cliques(k))
            if recorder.enabled:
                recorder.counter("sample/cliques_drawn", len(out))
            return out
        out = []
        accumulated = 0
        paths_sampled = 0
        seen = 0
        for path in paths:
            seen += 1
            if budget.active and not seen % 1024:
                budget.check("sample/draw")
            count = path.clique_count(k)
            if not count:
                continue
            want = (accumulated + count) * sample_size // total - (
                accumulated * sample_size // total
            )
            accumulated += count
            if want:
                out.extend(_sample_from_path(path, k, want, rng))
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
        Pre-collected valid paths to reuse.  When omitted, paths are
        **streamed** off the index (two sweeps: global count + allocation),
        so no path list is ever materialised; the drawn sample is identical
        to the pre-collected mode for the same seed.
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
        * ``parallel`` shards the two drawing sweeps over a process pool.
          The paths arrive in serial order, so the drawn sample — and
          everything downstream — is identical for any worker count and
          the same seed.
    """
    if sample_size < 1:
        raise InvalidParameterError(f"sample_size must be >= 1, got {sample_size}")
    if iterations < 1:
        raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    budget = opts.budget
    rng = random.Random(seed)
    # §6.1: a partial SCT*-k'-Index may be queried below its threshold;
    # the sample then misses cliques in pruned subtrees, but "most
    # k-cliques in the densest subgraph come from larger cliques"
    partial_approximation = not index.supports_k(k) and k >= 1
    engine = None
    if paths is None:
        enforce = not partial_approximation
        if opts.parallel is not None and opts.parallel.enabled:
            from ..parallel.engine import PathShardEngine

            candidate = PathShardEngine(index, opts.parallel, recorder=recorder)
            if candidate.has_chunks:
                engine = candidate
                paths = engine.path_view(k, enforce_support=enforce)
            else:
                candidate.close()
        if paths is None:
            paths = index.path_view(k, enforce_support=enforce)
    try:
        sampled = sample_k_cliques(
            paths, k, sample_size, rng, options=opts
        )
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
        # materialised sample
        if engine is not None:
            engine.close()
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
            swept = 0
            for clique in sampled:
                swept += 1
                if budget.active and not swept % 4096:
                    exhausted = budget.exceeded()
                    if exhausted:
                        break
                if threshold and any(engagement[v] < threshold for v in clique):
                    continue
                u = min(clique, key=weights.__getitem__)
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

    # stage 3: recovery of the true density through the index
    with recorder.span("sample/recover"):
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
        true_count = index.count_in_subset(
            k, chosen, enforce_support=not partial_approximation
        )
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
        "partial_index_approximation": partial_approximation,
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
