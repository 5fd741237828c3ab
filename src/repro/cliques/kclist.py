"""KCList: k-clique listing on the degeneracy DAG.

This is the listing algorithm of Danisch, Balalau & Sozio (WWW'18) that the
paper's KCL baseline re-runs every iteration.  Each k-clique is emitted
exactly once, as the increasing-position chain ``p_1 < p_2 < ... < p_k``
inside the degeneracy ordering; candidate sets are big-int bitsets over
each root's rows (:meth:`~repro.cliques.ordered_view.OrderedGraphView.root_rows`)
so that each refinement step is one ``&``.

The module offers three entry points:

* :func:`iter_k_cliques` — yield each k-clique (original vertex ids);
* :func:`count_k_cliques` — count without materialising;
* :func:`per_vertex_counts` — k-clique engagement of every vertex.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..errors import InvalidParameterError
from ..graph.graph import Graph
from .ordered_view import OrderedGraphView, ensure_view

__all__ = [
    "iter_k_cliques",
    "count_k_cliques",
    "per_vertex_counts",
    "iter_k_cliques_in_view",
]


def _check_k(k: int) -> None:
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")


def iter_k_cliques_in_view(
    view: OrderedGraphView, k: int
) -> Iterator[Tuple[int, ...]]:
    """Yield every k-clique as a tuple of *positions* in the ordering.

    Core recursion shared by the public wrappers; positions are strictly
    increasing within each tuple.
    """
    _check_k(k)
    n = view.n
    if k == 1:
        for i in range(n):
            yield (i,)
        return
    out = view.out
    if k == 2:
        for i in range(n):
            for j in out[i]:
                yield (i, j)
        return
    # prefix holds the chain built so far; cand is a bitset over the
    # root's row universe of the members adjacent to all of prefix and
    # later than prefix[-1]
    stack: List[Tuple[Tuple[int, ...], int]] = []
    for i in range(n):
        if len(out[i]) < k - 1:
            continue
        rows, pos, cand = view.root_rows(i)
        stack.append(((i,), cand))
        while stack:
            prefix, cand = stack.pop()
            if len(prefix) == k - 1:
                mask = cand
                while mask:
                    low = mask & -mask
                    yield prefix + (pos[low.bit_length() - 1],)
                    mask ^= low
                continue
            mask = cand
            while mask:
                low = mask & -mask
                t = low.bit_length() - 1
                mask ^= low
                # mask now holds exactly the candidates later than t
                nxt = mask & rows[t]
                if nxt:
                    stack.append((prefix + (pos[t],), nxt))


def iter_k_cliques(
    graph: Graph, k: int, view: Optional[OrderedGraphView] = None
) -> Iterator[Tuple[int, ...]]:
    """Yield every k-clique of ``graph`` as a tuple of original vertex ids.

    Parameters
    ----------
    graph:
        The undirected input graph.
    k:
        Clique size (``>= 1``).
    view:
        Optional pre-built ordered view of ``graph`` to reuse across calls.
    """
    view = ensure_view(graph, view)
    order = view.order
    for positions in iter_k_cliques_in_view(view, k):
        yield tuple(order[p] for p in positions)


def count_k_cliques(
    graph: Graph, k: int, view: Optional[OrderedGraphView] = None
) -> int:
    """Number of k-cliques in ``graph`` (no clique materialisation).

    Uses popcount at the last level, which skips the innermost Python loop.
    """
    _check_k(k)
    view = ensure_view(graph, view)
    n = view.n
    if k == 1:
        return n
    out = view.out
    if k == 2:
        return sum(map(len, out))
    total = 0
    stack: List[Tuple[int, int]] = []  # (cand_mask, depth_left)
    for i in range(n):
        if len(out[i]) < k - 1:
            continue
        rows, _, cand = view.root_rows(i)
        stack.append((cand, k - 1))
        while stack:
            cand, depth_left = stack.pop()
            if depth_left == 1:
                total += cand.bit_count()
                continue
            mask = cand
            while mask:
                low = mask & -mask
                t = low.bit_length() - 1
                mask ^= low
                nxt = mask & rows[t]
                if nxt:
                    stack.append((nxt, depth_left - 1))
    return total


def per_vertex_counts(
    graph: Graph, k: int, view: Optional[OrderedGraphView] = None
) -> List[int]:
    """k-clique engagement ``|C_k(v, G)|`` for every vertex ``v``.

    Materialises each clique once and attributes it to its ``k`` members.
    """
    counts = [0] * graph.n
    for clique in iter_k_cliques(graph, k, view=view):
        for v in clique:
            counts[v] += 1
    return counts
