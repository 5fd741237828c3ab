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

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice
from math import comb
from operator import sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..graph.disjoint_set import DisjointSet
from ..obs import NULL_RECORDER, Recorder
from ..options import RunOptions
from .sct import (
    SCTIndex,
    SCTPath,
    SCTPathTable,
    add_engagement,
    path_rows,
    query_paths,
    scope_rows,
)

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


class RowStore:
    """The rows of one query's path table inside a shrinking scope.

    Flat arrays beside an :class:`~repro.core.sct.SCTPathTable`, no Python
    object per row:

    * :attr:`vertices`, a copy of the table's vertex column; a row's kept
      pivots stay at the front of its pivot segment, in order, as
      vertices leave;
    * :attr:`live`, one flag per row, and :attr:`pivots`, its kept pivot
      count;
    * each vertex's positions in the vertex column, so the rows it lies
      on, built at the first :meth:`remove`.

    :attr:`counts` is always the k-clique engagement of every vertex over
    the live rows and :attr:`cliques` their k-clique total, so a store at
    scope ``S`` equals a filter of the whole table by ``S``
    (:func:`~repro.core.sct.scope_rows`).  A vertex leaves by
    :meth:`remove` — it kills the live rows it holds and is cut from the
    live rows it pivots, moving those rows' shares — so a scope that only
    shrinks costs the rows that lose a vertex, not a sweep of the table.
    """

    __slots__ = (
        "k", "start", "holds", "vertices", "pivots", "live", "n_live",
        "counts", "cliques", "dropped", "inside", "_first", "_at",
    )

    def __init__(self, table: SCTPathTable, k: int, n: int):
        self.k = k
        self.start = table.start
        self.holds = table.holds
        self.vertices = array("q", table.vertices)
        ends = chain(islice(self.start, 1, None), (len(self.vertices),))
        self.pivots = array(
            "q", map(sub, map(sub, ends, self.start), self.holds)
        )
        self.live = bytearray(
            0 <= k - h <= p for h, p in zip(self.holds, self.pivots)
        )
        self.n_live = sum(self.live)
        self.counts = [0] * n
        tallies = [0] * 5
        for _ in scope_rows(table, k, tallies, counts=self.counts):
            pass
        self.cliques = tallies[4]
        self.dropped = 0  # pivots cut from the live rows so far
        self.inside = bytearray(b"\x01") * n
        self._first: Optional[array] = None
        self._at: Optional[array] = None

    def __len__(self) -> int:
        """The live rows."""
        return self.n_live

    def __iter__(self) -> Iterator[Tuple[array, array]]:
        """Each live row, in table order, as ``(holds, kept pivots)``."""
        vertices, start, holds, pivots = (
            self.vertices, self.start, self.holds, self.pivots
        )
        for s, h, p in compress(zip(start, holds, pivots), self.live):
            m = s + h
            yield vertices[s:m], vertices[m:m + p]

    def scope(self) -> List[int]:
        """The vertices that have not left, ascending."""
        return list(compress(range(len(self.inside)), self.inside))

    def _index(self) -> None:
        """List each vertex's positions in the vertex column, ascending:
        a counting sort, the positions of vertex ``v`` at
        ``_at[_first[v]:_first[v + 1]]``."""
        vertices = self.vertices
        per_vertex = Counter(vertices)
        self._first = array("q", accumulate(
            map(per_vertex.__getitem__, range(len(self.counts))), initial=0
        ))
        cursor = self._first.tolist()
        at = self._at = array("q", bytes(8 * len(vertices)))
        for i, v in enumerate(vertices):
            at[cursor[v]] = i
            cursor[v] += 1

    def remove(
        self, gone: Iterable[int], threshold: Optional[int] = None
    ) -> None:
        """Take the vertices of ``gone`` out of the scope.

        A leaving vertex kills every live row it holds and is cut from
        every live row it pivots, which kills the row when its last
        clique needed it: a row with ``p`` pivots and ``t`` to choose
        loses ``C(p-1, t-1)`` cliques, each hold as many, each other
        pivot ``C(p-2, t-2)``.  Only the vertices still inside are
        recounted; a vertex that leaves counts 0 (it is on no live row).
        With ``threshold`` a vertex whose count falls below it leaves in
        turn: the peel to the ``(threshold, Psi)``-clique-core, whose
        result does not depend on the order of removal.  Without, only
        ``gone`` leaves.
        """
        if self._at is None:
            self._index()
        k = self.k
        vertices, start, holds, pivots = (
            self.vertices, self.start, self.holds, self.pivots
        )
        live, counts, inside = self.live, self.counts, self.inside
        at, first = self._at, self._first
        left = []
        for v in gone:
            if inside[v]:
                inside[v] = 0
                left.append(v)
        stack = left[:]
        cliques = self.cliques
        dropped = self.dropped
        killed = 0
        last_row = len(start) - 1

        def take(members, share: int) -> None:
            for u in members:
                if inside[u]:
                    counts[u] -= share
                    if threshold is not None and counts[u] < threshold:
                        inside[u] = 0
                        left.append(u)
                        stack.append(u)

        while stack:
            v = stack.pop()
            for i in at[first[v]:first[v + 1]]:
                r = bisect_right(start, i) - 1
                if not live[r]:
                    continue
                s = start[r]
                m = s + holds[r]
                p = pivots[r]
                t = k - holds[r]
                e = m + p
                if i < m or p == t:
                    # a hold, or a pivot the row's last clique needs
                    live[r] = 0
                    killed += 1
                    share = comb(p, t)
                    cliques -= share
                    end = start[r + 1] if r < last_row else len(vertices)
                    dropped -= end - e
                    if any(map(inside.__getitem__, vertices[s:e])):
                        take(vertices[s:m], share)
                        if t:
                            take(vertices[m:e], comb(p - 1, t - 1))
                    continue
                j = vertices.index(v, m, e)
                vertices[j:e - 1] = vertices[j + 1:e]
                pivots[r] = p - 1
                dropped += 1
                if t:
                    share = comb(p - 1, t - 1)
                    cliques -= share
                    take(vertices[s:m], share)
                    if t > 1:
                        take(vertices[m:e - 1], comb(p - 2, t - 2))
        for v in left:
            counts[v] = 0
        self.cliques = cliques
        self.dropped = dropped
        self.n_live -= killed


def clique_core(paths, k: int, n: int, threshold: int) -> Tuple[List[int], int]:
    """The ``(threshold, Psi)``-clique-core of Fang et al. and the number
    of vertices peeled off after the first cut.

    The core is the largest vertex set in which every vertex lies in at
    least ``threshold`` k-cliques; with ``threshold = ceil(rho')`` for an
    achieved ``rho'`` it is the scope Lemma 4 leaves, applied until it
    holds inside itself.  ``paths`` is a query's path source or a path
    table.  The first cut drops every vertex below ``threshold`` by its
    engagement in the whole graph; then :meth:`RowStore.remove` peels
    what is left, on a store over the query's table, or over a table of
    the rows inside the first cut when the query streams.  Returned
    sorted.
    """
    table = paths if isinstance(paths, SCTPathTable) else paths.table
    if table is not None:
        store = RowStore(table, k, n)
        first_cut = sum(count >= threshold for count in store.counts)
    else:
        engagement = [0] * n
        add_engagement(paths, k, engagement)
        inside = [count >= threshold for count in engagement]
        first_cut = sum(inside)
        table = SCTPathTable()
        for holds, pivots in scope_rows(paths, k, [0] * 5, inside):
            table.append(holds, pivots)
        store = RowStore(table, k, n)
    counts = store.counts
    store.remove(
        [v for v in range(n) if counts[v] < threshold], threshold=threshold
    )
    scope = store.scope()
    return scope, first_cut - len(scope)
