"""Graph reductions driven by the SCT*-Index (§5.1 of the paper).

Two reductions limit how much of the graph the weight-refinement loop has
to touch:

* **Clique-connectivity** — :func:`kp_computation` (Algorithm 3) builds the
  k-clique-isolating partition by union-finding the vertices of every
  root-to-leaf path (all cliques of one path share its holds, so the whole
  path lands in one partition).  :func:`partition_density_bounds` then
  derives the Lemma 3 upper bound ``max_v |C_k(v, G)| / k`` per partition;
  partitions whose bound is dominated by an achieved density can be
  discarded wholesale.
* **Clique-engagement** — Lemma 4: once a density ``rho'`` has been
  *achieved* by some subgraph, no vertex with fewer than ``ceil(rho')``
  k-cliques can be in the optimal solution.  :func:`engagement_threshold`
  converts a rational density into that integer cutoff, and
  :func:`clique_core` applies the cut until it holds inside what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graph.disjoint_set import DisjointSet
from ..obs import NULL_RECORDER, Recorder
from ..options import RunOptions
from .sct import SCTIndex, SCTPath, add_engagement, path_rows, query_paths

__all__ = [
    "KCliquePartition",
    "kp_computation",
    "partition_density_bounds",
    "engagement_threshold",
]


@dataclass
class KCliquePartition:
    """A k-clique-isolating partition of the vertex set.

    ``partition_of[v]`` is the representative id of the partition holding
    ``v``.  Vertices on no valid path (zero k-cliques) stay singletons.
    """

    partition_of: List[int]

    def groups(self) -> Dict[int, List[int]]:
        """Mapping representative -> sorted member list."""
        out: Dict[int, List[int]] = {}
        for v, root in enumerate(self.partition_of):
            out.setdefault(root, []).append(v)
        return out

    @property
    def n_partitions(self) -> int:
        """Number of distinct partitions (singletons included)."""
        return len(set(self.partition_of))


def kp_computation(
    index: SCTIndex,
    k: int,
    paths: Optional[Iterable[SCTPath]] = None,
    options: Optional[RunOptions] = None,
) -> KCliquePartition:
    """Compute the k-clique-isolating partition (Algorithm 3).

    Each root-to-leaf path that contains at least one k-clique has all its
    vertices merged into one set; union-by-rank and path compression make
    the sweep effectively linear in total path length.

    Parameters
    ----------
    index:
        The SCT*-Index of the graph.
    k:
        Clique size.
    paths:
        The paths to merge: a query's path source, or any iterable of
        :class:`~repro.core.sct.SCTPath`.  Omitted, one walk of the index
        fills a path table (:func:`~repro.core.sct.query_paths`).
    options:
        A :class:`~repro.options.RunOptions`; only the recorder and
        parallel knobs apply here.  An enabled recorder gets a
        ``reductions/kp_computation`` span plus ``reductions/paths_merged``
        and ``reductions/partitions`` counters.  With workers the walk is
        sharded across a process pool, but the unions are applied in the
        serial path order, so the representatives are identical.
    """
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    with recorder.span("reductions/kp_computation"):
        if paths is None:
            with query_paths(index, k, options=opts) as source:
                return _partition(index.n_vertices, source, recorder)
        return _partition(index.n_vertices, paths, recorder)


def _partition(n: int, paths, recorder: Recorder) -> KCliquePartition:
    """Union-find the vertices of every path of ``paths``."""
    ds = DisjointSet(n)
    n_paths = 0
    for holds, pivots in path_rows(paths):
        ds.union_many(chain(holds, pivots))
        n_paths += 1
    partition_of = [ds.find(v) for v in range(n)]
    if recorder.enabled:
        recorder.counter("reductions/paths_merged", n_paths)
        recorder.counter("reductions/partitions", len(set(partition_of)))
    return KCliquePartition(partition_of=partition_of)


def partition_density_bounds(
    partition: KCliquePartition,
    engagement: Sequence[int],
    k: int,
    recorder: Recorder = NULL_RECORDER,
) -> Dict[int, Fraction]:
    """Per-partition upper bound on the maximum k-clique density (Lemma 3).

    The density of any subgraph of partition ``KP`` is at most
    ``max_{v in KP} |C_k(v, G)| / k``.

    Parameters
    ----------
    partition:
        Output of :func:`kp_computation`.
    engagement:
        Global per-vertex k-clique counts ``|C_k(v, G)|``.
    k:
        Clique size.
    recorder:
        Observability hook: records the number of bounded partitions and
        the largest Lemma 3 bound.
    """
    best: Dict[int, int] = {}
    for v, root in enumerate(partition.partition_of):
        count = engagement[v]
        if count > best.get(root, -1):
            best[root] = count
    bounds = {root: Fraction(count, k) for root, count in best.items()}
    if recorder.enabled and bounds:
        recorder.counter("reductions/partitions_bounded", len(bounds))
        recorder.gauge(
            "reductions/max_partition_bound", float(max(bounds.values()))
        )
    return bounds


def live_partitions(
    partition_of: Sequence[int],
    bounds: Dict[int, Fraction],
    best_density: Fraction,
) -> List[bool]:
    """Per vertex: whether its partition's Lemma 3 bound beats ``best_density``.

    The clique-connectivity test of one SCTL* round, decided once per
    partition by integer cross-multiplication.
    """
    num, den = best_density.numerator, best_density.denominator
    live = {
        root: bound.numerator * den > num * bound.denominator
        for root, bound in bounds.items()
    }
    return [live[root] for root in partition_of]


def engagement_threshold(density: Fraction) -> int:
    """``ceil(density)`` — the Lemma 4 engagement cutoff for a density."""
    return -((-density.numerator) // density.denominator)


def clique_core(paths, k: int, n: int, threshold: int) -> Tuple[List[int], int]:
    """The ``(threshold, Psi)``-clique-core of Fang et al. and the number
    of vertices peeled off after the first cut.

    The core is the largest vertex set in which every vertex lies in at
    least ``threshold`` k-cliques; with ``threshold = ceil(rho')`` for an
    achieved ``rho'`` it is the scope Lemma 4 leaves, applied until it
    holds inside itself.  ``paths`` — a query's path source or a path
    table — is swept twice.  The first sweep counts every vertex's
    engagement and cuts the vertices below ``threshold``; the second
    keeps the rows inside that cut (every hold inside, pivots filtered)
    and lists each vertex's rows.  Then one peel: removing a vertex kills
    the rows it holds and takes one pivot off the rows it pivots, so a
    row's hold share falls from ``C(p, t)`` to ``C(p-1, t)`` and its
    pivot share from ``C(p-1, t-1)`` to ``C(p-2, t-1)``; a vertex that
    falls below ``threshold`` is removed in turn.  The core is unique, so
    the order of removal does not matter: the scope is the fixed point
    of recounting inside the shrinking scope.  Returned sorted.
    """
    engagement = [0] * n
    add_engagement(paths, k, engagement)
    inside = [count >= threshold for count in engagement]
    first_cut = sum(inside)
    counts = [0] * n
    rows: List[Tuple[Sequence[int], List[int]]] = []
    add_engagement(paths, k, counts, inside, rows)
    held: List[Optional[List[int]]] = [[] if keep else None for keep in inside]
    pivoted: List[Optional[List[int]]] = [
        [] if keep else None for keep in inside
    ]
    sizes: List[int] = []
    needs: List[int] = []
    for r, (holds, pivots) in enumerate(rows):
        for v in holds:
            held[v].append(r)
        t = k - len(holds)
        if t:  # a row with every hold of a clique ignores its pivots
            for v in pivots:
                pivoted[v].append(r)
        sizes.append(len(pivots))
        needs.append(t)
    live = [True] * len(rows)
    stack = [v for v in range(n) if inside[v] and counts[v] < threshold]
    for v in stack:
        inside[v] = False

    def drop(vertices: Iterable[int], share: int) -> None:
        for u in vertices:
            if inside[u]:
                counts[u] -= share
                if counts[u] < threshold:
                    inside[u] = False
                    stack.append(u)

    while stack:
        v = stack.pop()
        for r in held[v]:
            if live[r]:
                live[r] = False
                holds, pivots = rows[r]
                p, t = sizes[r], needs[r]
                drop(holds, comb(p, t))
                if t:
                    drop(pivots, comb(p - 1, t - 1))
        for r in pivoted[v]:
            if live[r]:
                holds, pivots = rows[r]
                p, t = sizes[r], needs[r]
                sizes[r] = p - 1
                drop(holds, comb(p - 1, t - 1))
                if t > 1:
                    drop(pivots, comb(p - 2, t - 2))
                if p == t:  # the row's last clique needed v
                    live[r] = False
    scope = [v for v in range(n) if inside[v]]
    return scope, first_cut - len(scope)
