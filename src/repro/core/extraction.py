"""Extracting a densest prefix from refined vertex weights.

Every convex-programming-style algorithm (KCL, SCTL, SCTL*, the sampling
variants) finishes the same way — Lines 6-10 of Algorithm 1:

1. sort vertices by weight, descending;
2. for each prefix of the order, count the k-cliques it contains;
3. return the prefix with the best count-per-vertex ratio.

The expensive part is step 2.  This module provides two backends:

* :func:`best_prefix_from_paths` — works directly on SCT*-Index
  root-to-leaf paths.  For each path, the number of k-cliques whose
  *last-ranked* member sits at a given rank has a closed form in binomial
  coefficients, so the full prefix profile costs
  ``O(sum_P |P| log |P|)`` — no clique is ever materialised.
* :func:`best_prefix_from_cliques` — buckets explicit cliques by the rank
  of their last member (used by the KCL baselines and the sampling stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

from .sct import SCTPath, path_rows

__all__ = ["PrefixResult", "best_prefix_from_paths", "best_prefix_from_cliques"]


@dataclass(frozen=True)
class PrefixResult:
    """The best weight-ordered prefix.

    ``vertices`` come in weight order (heaviest first); ``clique_count``
    counts k-cliques inside the prefix, so ``clique_count / len(vertices)``
    is the reported density.
    """

    vertices: List[int]
    clique_count: int

    @property
    def density_fraction(self) -> Fraction:
        """Exact density of the prefix (0 for an empty prefix)."""
        if not self.vertices:
            return Fraction(0)
        return Fraction(self.clique_count, len(self.vertices))

    @property
    def density(self) -> float:
        """Density as a float."""
        return float(self.density_fraction)


def _weight_ranking(weights: Sequence[float]) -> Tuple[List[int], List[int]]:
    """Vertices sorted by weight descending (ties by id) and the inverse map."""
    order = sorted(range(len(weights)), key=lambda v: (-weights[v], v))
    rank = [0] * len(weights)
    for i, v in enumerate(order):
        rank[v] = i
    return order, rank


def _best_prefix(order: List[int], buckets: List[int]) -> PrefixResult:
    """Pick the prefix maximising cumulative-bucket density.

    Ties are broken towards the shorter prefix, which keeps results
    deterministic and favours small, dense answers.
    """
    best_num, best_den = 0, 1  # density 0 for the empty prefix
    best_len = 0
    running = 0
    for i, count in enumerate(buckets):
        running += count
        # running/(i+1) > best_num/best_den  <=>  running*best_den > best_num*(i+1)
        if running * best_den > best_num * (i + 1):
            best_num, best_den = running, i + 1
            best_len = i + 1
    return PrefixResult(vertices=order[:best_len], clique_count=best_num)


def best_prefix_from_paths(
    paths: Iterable[SCTPath],
    weights: Sequence[float],
    k: int,
) -> PrefixResult:
    """Best-density prefix, counting cliques through SCT*-Index paths.

    For a path with holds ``H`` and pivots ``P``, every k-clique is
    ``H + (k-|H|)-subset of P``.  Its last-ranked member is either the
    last-ranked hold (when all chosen pivots rank earlier) or the
    last-ranked chosen pivot; grouping subsets by that pivot gives
    ``C(i, t-1)`` cliques per pivot (``i`` = number of earlier-ranked
    pivots), all without enumeration.

    ``paths`` — a query's path source, a path table or any iterable of
    :class:`~repro.core.sct.SCTPath` — is swept exactly once.  A path
    with a single clique (``t = 0`` or every pivot needed) skips the
    pivot sort: its clique ends at the path's highest rank.
    """
    n = len(weights)
    order, rank = _weight_ranking(weights)
    buckets = [0] * n  # buckets[i] = cliques whose last-ranked member is order[i]
    rank_of = rank.__getitem__
    for holds, pivots in path_rows(paths):
        t = k - len(holds)
        if t < 0 or t > len(pivots):
            continue
        hold_rank = max(map(rank_of, holds))
        if t == 0:
            buckets[hold_rank] += 1
            continue
        if t == len(pivots):
            top = max(map(rank_of, pivots))
            buckets[top if top > hold_rank else hold_rank] += 1
            continue
        pivot_ranks = sorted(map(rank_of, pivots))
        below = 0  # pivots ranked before the last hold
        for r in pivot_ranks:
            if r < hold_rank:
                below += 1
            else:
                break
        if below >= t:
            buckets[hold_rank] += comb(below, t)
        for i in range(max(below, t - 1), len(pivot_ranks)):
            r = pivot_ranks[i]
            if r > hold_rank:
                buckets[r] += comb(i, t - 1)
    return _best_prefix(order, buckets)


def best_prefix_from_cliques(
    cliques: Iterable[Tuple[int, ...]],
    weights: Sequence[float],
    restrict_to: Optional[Iterable[int]] = None,
) -> PrefixResult:
    """Best-density prefix from an explicit clique collection.

    Parameters
    ----------
    cliques:
        Clique vertex tuples (any uniform size).
    weights:
        Per-vertex weights indexed by vertex id.
    restrict_to:
        Optional vertex subset the ordering is restricted to (used by the
        sampling algorithms, whose universe is the sampled subgraph).
        Cliques with a member outside the subset are ignored.
    """
    n = len(weights)
    if restrict_to is None:
        order, rank = _weight_ranking(weights)
        in_universe = None
    else:
        universe = sorted(set(restrict_to))
        order = sorted(universe, key=lambda v: (-weights[v], v))
        rank = [-1] * n
        for i, v in enumerate(order):
            rank[v] = i
        in_universe = set(universe)
    buckets = [0] * len(order)
    rank_of = rank.__getitem__
    for clique in cliques:
        if in_universe is not None and not in_universe.issuperset(clique):
            continue
        buckets[max(map(rank_of, clique))] += 1
    return _best_prefix(order, buckets)
