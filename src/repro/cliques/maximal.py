"""Maximal clique enumeration (Bron–Kerbosch with pivoting).

Used to obtain ``k_max`` (the maximum clique size, reported in Table 2 of
the paper) and as an independent sanity oracle for the SCT*-Index, whose
leaves are in bijection with maximal cliques of the graph.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..graph.graph import Graph
from .ordered_view import OrderedGraphView, ensure_view

__all__ = ["iter_maximal_cliques", "max_clique_size", "maximum_clique"]


def _iter_maximal_positions(view: OrderedGraphView) -> Iterator[List[int]]:
    """Yield each maximal clique as an ascending list of positions.

    Bron–Kerbosch with the Tomita max-degree pivot, seeded per vertex along
    the degeneracy ordering (Eppstein–Löffler–Strash), on bitsets over each
    root's rows (:meth:`OrderedGraphView.root_rows`).  The search runs on
    an explicit frame stack, so cliques deeper than the interpreter's
    recursion limit enumerate fine.

    Root ``i`` starts from ``P = N+(i)`` and ``X`` = its earlier
    neighbours, which would re-generate cliques already seen.  Earlier
    neighbours outside the row universe (all of them for local rows, those
    before the block for block rows) are carried as their rows over
    ``N+(i)`` and scanned first for the pivot, as their positions are the
    lowest.  One with no neighbour in ``N+(i)`` is dropped: it never beats
    a member of ``P`` as pivot, and the first branch removes it from ``X``.
    """
    order = view.order
    position = view.position
    neighbors = view.graph.neighbors
    for i in range(view.n):
        rows, pos, cand = view.root_rows(i)
        if not cand:
            # no later neighbour: {i} is maximal iff it has no neighbour
            if not neighbors(order[i]):
                yield [i]
            continue
        if view.uses_block(i):
            lo = view.block_start
            s = i - lo
            x_mask = rows[s] & ((1 << s) - 1)
        else:
            lo, x_mask = i, 0
        x_out = []
        if lo:
            earlier = [
                p for p in map(position.__getitem__, neighbors(order[i])) if p < lo
            ]
            if earlier:
                earlier.sort()
                bit = {order[pos[t]]: 1 << t for t in _bits(cand)}
                inside = bit.keys()
                for p in earlier:
                    row = sum(map(bit.__getitem__, inside & neighbors(order[p])))
                    if row:
                        x_out.append(row)
        # frames: [r_mask, p_mask, x_mask, x_out, branch]; branch is None
        # until the pivot has been chosen, afterwards the not-yet-expanded
        # branch set
        stack: List[List] = [[0, cand, x_mask, x_out, None]]
        while stack:
            frame = stack[-1]
            if frame[4] is None:
                p_mask, x_mask, x_out = frame[1], frame[2], frame[3]
                if not (p_mask or x_mask or x_out):
                    yield [i] + [pos[t] for t in _bits(frame[0])]
                    stack.pop()
                    continue
                # pivot: vertex of P ∪ X with most neighbours inside P,
                # the first in position order on ties; covering all of P
                # cannot be beaten, so stop scanning early
                p_count = p_mask.bit_count()
                best_row, best_cover = 0, -1
                for row in x_out:
                    cover = (row & p_mask).bit_count()
                    if cover > best_cover:
                        best_cover, best_row = cover, row
                        if cover == p_count:
                            break
                mask = p_mask | x_mask if best_cover < p_count else 0
                while mask:
                    low = mask & -mask
                    mask ^= low
                    row = rows[low.bit_length() - 1]
                    cover = (row & p_mask).bit_count()
                    if cover > best_cover:
                        best_cover, best_row = cover, row
                        if cover == p_count:
                            break
                frame[4] = p_mask & ~best_row
            if frame[4]:
                low = frame[4] & -frame[4]
                frame[4] ^= low
                row = rows[low.bit_length() - 1]
                stack.append([
                    frame[0] | low,
                    frame[1] & row,
                    frame[2] & row,
                    [r for r in frame[3] if r & low],
                    None,
                ])
                frame[1] &= ~low
                frame[2] |= low
            else:
                stack.pop()


def iter_maximal_cliques(
    graph: Graph, view: Optional[OrderedGraphView] = None
) -> Iterator[Tuple[int, ...]]:
    """Yield every maximal clique as a sorted tuple of original vertex ids."""
    view = ensure_view(graph, view)
    order = view.order
    for positions in _iter_maximal_positions(view):
        yield tuple(sorted(order[p] for p in positions))


def max_clique_size(graph: Graph, view: Optional[OrderedGraphView] = None) -> int:
    """The maximum clique size ``k_max`` (0 for an empty graph)."""
    if graph.n == 0:
        return 0
    view = ensure_view(graph, view)
    return max(map(len, _iter_maximal_positions(view)))


def maximum_clique(
    graph: Graph, view: Optional[OrderedGraphView] = None
) -> List[int]:
    """One maximum clique, as a sorted vertex list (empty for empty graph)."""
    if graph.n == 0:
        return []
    view = ensure_view(graph, view)
    best: List[int] = []
    for positions in _iter_maximal_positions(view):
        if len(positions) > len(best):
            best = positions
    return sorted(view.to_original(best))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
