"""Degeneracy-ordered view of a graph, with per-root adjacency rows.

Clique algorithms (KCList, the SCT*-Index build, Bron–Kerbosch) all want the
same preprocessing: relabel vertices by degeneracy-ordering position, so
that "later in the ordering" becomes "higher position".  The view keeps,
for every position, the ascending list of its *out-neighbours* (its later
neighbours): ``O(n + m)`` memory, and no list longer than the degeneracy.

The recursions run on big-int bitsets, where every set intersection is one
C-level ``&``, but never over all ``n`` positions.
:meth:`OrderedGraphView.root_rows` hands each root position ``i`` adjacency
rows over a small universe that contains ``N+(i)``:

* **local rows** — ``d = |N+(i)|`` bits, bit ``t`` standing for the
  ``t``-th out-neighbour, derived per root at about one dictionary probe
  per triangle;
* the **dense block** — full adjacency rows over the last
  ``w = isqrt(64 * (n + m))`` positions, built on first use and at most
  ``8 * (n + m)`` bytes.  Core numbers never decrease along the ordering,
  so the block holds the highest-core vertices.  A root inside it whose
  out-degree has ``64 * d >= w`` reads the block rows instead of deriving
  ``d`` local rows, which on dense inputs would cost ``O(d^2)`` per root.

Both universes number their bits in ascending position order, so a
lowest-bit-first scan visits candidates in the same order either way: the
pivot tie-breaks, and with them every tree and listing order, do not
depend on the row source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError
from ..graph.cores import CoreDecomposition, core_decomposition
from ..graph.graph import Graph

__all__ = ["OrderedGraphView", "build_ordered_view", "ensure_view", "popcount"]


def popcount(mask: int) -> int:
    """Number of set bits in ``mask``."""
    return mask.bit_count()


def _local_rows(out: List[List[int]], members: List[int]) -> List[int]:
    """Adjacency rows of the subgraph induced on ``members`` (ascending
    positions), bit ``t`` standing for ``members[t]``.

    Each member's own out-list names its later neighbours, so one probe
    per edge inside ``members`` — a triangle with the root — finds them all.
    """
    local = dict(zip(members, range(len(members))))
    inside = local.keys()
    rows = [0] * len(members)
    for t, p in enumerate(members):
        later = inside & out[p]
        if later:
            bit = 1 << t
            row = rows[t]
            for q in later:
                s = local[q]
                row |= 1 << s
                rows[s] |= bit
            rows[t] = row
    return rows


@dataclass(frozen=True)
class OrderedGraphView:
    """Graph relabelled along a degeneracy ordering.

    Attributes
    ----------
    graph:
        The original graph (``None`` in the copy a parallel build worker
        receives: the rows come from ``out`` alone).
    order:
        ``order[i]`` is the original vertex id occupying position ``i``.
    position:
        Inverse of ``order``.
    out:
        ``out[i]`` lists the positions ``> i`` adjacent to position ``i``
        — the degeneracy-DAG out-neighbourhood — in ascending order.
    degeneracy:
        Degeneracy of the graph, an upper bound on every out-degree.
    core_number:
        ``core_number[i]`` is the core number of the vertex at position
        ``i`` (note: indexed by *position*, not original id).
    block_start:
        First position of the dense block (see :meth:`dense_block`).
    """

    graph: Graph
    order: List[int]
    position: List[int]
    out: List[List[int]]
    degeneracy: int
    core_number: List[int]
    block_start: int
    _block: List[int] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.order)

    def to_original(self, positions) -> List[int]:
        """Map an iterable of positions back to original vertex ids."""
        order = self.order
        return [order[i] for i in positions]

    def dense_block(self) -> List[int]:
        """Full adjacency rows over positions ``block_start .. n - 1``.

        Row ``s`` has bit ``t`` set iff positions ``block_start + s`` and
        ``block_start + t`` are adjacent.  Built on first use and cached;
        ``w`` rows of ``w`` bits with ``w <= isqrt(64 * (n + m))``.
        """
        if self._block or self.block_start == self.n:
            return self._block
        b0 = self.block_start
        w = self.n - b0
        byte_of = [t >> 3 for t in range(w)]
        bit_of = [1 << (t & 7) for t in range(w)]
        bufs = [bytearray((w >> 3) + 1) for _ in range(w)]
        rows = []
        # row s is complete once s is reached: earlier rows set its
        # lower bits, its own out-list sets the higher ones
        for s, later in enumerate(self.out[b0:]):
            buf = bufs[s]
            byte, bit = byte_of[s], bit_of[s]
            for t in map((-b0).__add__, later) if b0 else later:
                buf[byte_of[t]] |= bit_of[t]
                bufs[t][byte] |= bit
            rows.append(int.from_bytes(buf, "little"))
            bufs[s] = None
        # one slice store: a concurrent first use at worst stores equal rows
        self._block[:] = rows
        return self._block

    def uses_block(self, i: int) -> bool:
        """Whether root position ``i`` reads its rows from the dense block:
        it lies in the block and its out-degree ``d`` has ``64 * d >= w``.
        Below that, ``d`` local rows cost less than ``w``-bit
        intersections."""
        return (
            i >= self.block_start
            and 64 * len(self.out[i]) >= self.n - self.block_start
        )

    def root_rows(self, i: int) -> Tuple[List[int], Sequence[int], int]:
        """Adjacency rows for the recursion rooted at position ``i``.

        Returns ``(rows, positions, cand)``.  Bit ``t`` stands for
        position ``positions[t]``, bits ascend with position, ``cand`` has
        exactly the bits of ``N+(i)``, and for every bit ``t`` of ``cand``
        ``rows[t]`` has bit ``s`` set iff bits ``t`` and ``s`` stand for
        adjacent positions.  The universe is either ``N+(i)`` itself
        (local rows) or the dense block, by :meth:`uses_block`.
        """
        if self.uses_block(i):
            b0 = self.block_start
            rows = self.dense_block()
            s = i - b0 + 1
            return rows, range(b0, self.n), rows[s - 1] >> s << s
        members = self.out[i]
        return _local_rows(self.out, members), members, (1 << len(members)) - 1


def build_ordered_view(
    graph: Graph, decomposition: Optional[CoreDecomposition] = None
) -> OrderedGraphView:
    """Construct the ordered view of ``graph``.

    Parameters
    ----------
    graph:
        The undirected input graph.
    decomposition:
        Optional pre-computed core decomposition to reuse.
    """
    if decomposition is None:
        decomposition = core_decomposition(graph)
    order = decomposition.order
    position = decomposition.position
    n = graph.n
    out: List[List[int]] = []
    for i, v in enumerate(order):
        later = [p for p in map(position.__getitem__, graph.neighbors(v)) if p > i]
        later.sort()
        out.append(later)
    core_number = decomposition.core_number
    return OrderedGraphView(
        graph=graph,
        order=order,
        position=position,
        out=out,
        degeneracy=decomposition.degeneracy,
        core_number=[core_number[v] for v in order],
        block_start=max(0, n - isqrt(64 * (n + graph.m))),
    )


def ensure_view(
    graph: Graph, view: Optional[OrderedGraphView] = None, recorder=None
) -> OrderedGraphView:
    """``view`` checked against ``graph``, or a new view of ``graph``.

    A view of another graph is rejected with
    :class:`~repro.errors.InvalidParameterError`: every consumer would
    otherwise answer for the view's graph under ``graph``'s name.  When a
    view is built and ``recorder`` is given, the build is timed in its
    ``ordered_view`` span.
    """
    if view is None:
        if recorder is None:
            return build_ordered_view(graph)
        with recorder.span("ordered_view"):
            return build_ordered_view(graph)
    if view.graph is not graph and view.graph != graph:
        raise InvalidParameterError(
            f"the ordered view was built from another graph ({view.graph!r}) "
            f"than the one given ({graph!r})"
        )
    return view
