"""Core undirected-graph container.

The :class:`Graph` class stores a simple, undirected, unweighted graph with
vertices compacted to the integer range ``0 .. n-1``.  It is the substrate
every algorithm in this package operates on.

Adjacency is kept as one ``set`` per vertex: membership tests,
iteration and ``&`` between neighbourhoods are all C-level operations, and
the whole graph takes ``O(n + m)`` memory.  The clique algorithms work on
big-int bitsets instead, but only over each root's small neighbourhood
(see :mod:`repro.cliques.ordered_view`), never over all ``n`` vertices.

Graphs are conceptually immutable once constructed: all mutating algorithms
(peeling, reductions, ...) either work on copies of the adjacency or build
induced subgraphs via :meth:`Graph.induced_subgraph`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import GraphError

__all__ = ["Graph", "iter_bits"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ``mask`` in increasing order.

    This is the standard trick for iterating a big-int bitset: repeatedly
    isolate the lowest set bit with ``mask & -mask``.

    >>> list(iter_bits(0b10110))
    [1, 2, 4]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph over vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n``.  Self-loops are
        rejected; duplicate edges (in either orientation) are collapsed.
    labels:
        Optional external labels, one per vertex.  Purely cosmetic — every
        algorithm works on the integer ids.
    """

    __slots__ = ("_n", "_m", "_adj", "_labels", "_degree_cache")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]] = (),
        labels: Optional[Sequence] = None,
    ):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        if labels is not None and len(labels) != n:
            raise GraphError(
                f"labels has {len(labels)} entries but graph has {n} vertices"
            )
        self._n = n
        adj: List[set] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self._adj = adj
        self._m = m
        self._labels = list(labels) if labels is not None else None
        self._degree_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple]) -> "Graph":
        """Build a graph from edges over arbitrary hashable labels.

        Labels are compacted to ``0 .. n-1`` in first-seen order; the
        original labels are preserved on the returned graph.
        """
        ids: Dict = {}
        compact_edges: List[Tuple[int, int]] = []
        labels: List = []
        for u, v in edges:
            for x in (u, v):
                if x not in ids:
                    ids[x] = len(labels)
                    labels.append(x)
            compact_edges.append((ids[u], ids[v]))
        return cls(len(labels), compact_edges, labels=labels)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """The complete graph :math:`K_n`."""
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """The edgeless graph on ``n`` vertices."""
        return cls(n)

    def copy(self) -> "Graph":
        """An independent copy of this graph."""
        return Graph(self._n, self.edges(), labels=self._labels)

    def _with_edge_delta(
        self,
        inserts: Sequence[Tuple[int, int]],
        deletes: Sequence[Tuple[int, int]],
    ) -> "Graph":
        """A structurally shared copy with an edge batch applied.

        Only the adjacency rows of touched vertices are copied; every
        other row (and the cached degrees, patched per edge) is shared with ``self`` — which is safe because graphs are
        immutable once constructed.  Callers must already have validated
        the batch (every insert absent, every delete present, no
        overlap); :func:`repro.core.update.apply_edge_updates` is the
        validating front door.
        """
        g = object.__new__(Graph)
        g._n = self._n
        adj = list(self._adj)
        touched: set = set()
        for u, v in inserts:
            for x in (u, v):
                if x not in touched:
                    touched.add(x)
                    adj[x] = set(adj[x])
            adj[u].add(v)
            adj[v].add(u)
        for u, v in deletes:
            for x in (u, v):
                if x not in touched:
                    touched.add(x)
                    adj[x] = set(adj[x])
            adj[u].discard(v)
            adj[v].discard(u)
        g._adj = adj
        g._m = self._m + len(inserts) - len(deletes)
        g._labels = list(self._labels) if self._labels is not None else None
        if self._degree_cache is not None:
            degs = list(self._degree_cache)
            for u, v in inserts:
                degs[u] += 1
                degs[v] += 1
            for u, v in deletes:
                degs[u] -= 1
                degs[v] -= 1
            g._degree_cache = degs
        else:
            g._degree_cache = None
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def neighbors(self, v: int) -> set:
        """The neighbour set of ``v``.  Treat as read-only."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self._adj[v])

    def degrees(self) -> List[int]:
        """Degrees of all vertices (cached)."""
        if self._degree_cache is None:
            self._degree_cache = [len(s) for s in self._adj]
        return self._degree_cache

    def max_degree(self) -> int:
        """The maximum degree, 0 for an empty graph."""
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return v in self._adj[u]

    def label_of(self, v: int) -> object:
        """External label of ``v`` (the id itself if no labels were given)."""
        if self._labels is None:
            return v
        return self._labels[v]

    @property
    def labels(self) -> Optional[List]:
        """The external label list, or ``None``."""
        return self._labels

    # ------------------------------------------------------------------
    # subgraphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> Tuple["Graph", List[int]]:
        """The subgraph induced by ``vertices``.

        Returns ``(subgraph, orig_ids)`` where ``orig_ids[i]`` is the vertex
        of *this* graph that became vertex ``i`` of the subgraph.  Vertex
        order follows increasing original id, so results are deterministic.
        """
        keep = sorted(set(vertices))
        for v in keep:
            if not (0 <= v < self._n):
                raise GraphError(f"vertex {v} out of range for n={self._n}")
        remap = {v: i for i, v in enumerate(keep)}
        keep_set = remap.keys()
        sub_edges = []
        for u in keep:
            for v in self._adj[u]:
                if u < v and v in keep_set:
                    sub_edges.append((remap[u], remap[v]))
        labels = [self.label_of(v) for v in keep]
        return Graph(len(keep), sub_edges, labels=labels), keep

    def is_clique(self, vertices: Sequence[int]) -> bool:
        """Whether ``vertices`` (distinct ids) induce a complete subgraph."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            return False
        for i, u in enumerate(vs):
            nbrs = self._adj[u]
            for v in vs[i + 1:]:
                if v not in nbrs:
                    return False
        return True

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, v) -> bool:
        return isinstance(v, int) and 0 <= v < self._n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self):  # graphs are mutable-ish containers; unhashable
        raise TypeError("Graph objects are unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"
