"""The SCT*-Index: a pivot/hold succinct clique tree with max-depth pruning.

This is the paper's central data structure (§4.1).  It adapts the succinct
clique tree of Jain & Seshadhri's *Pivoter* so that k-clique listing for a
*specific* ``k`` does not traverse the whole tree:

* every tree node records the **max-depth** of its subtree — the largest
  number of (non-root) vertices on any root-to-leaf path through it — so a
  query for ``k`` only descends into children whose max-depth is ``>= k``;
* subtrees rooted at vertices that cannot be in any k'-clique are pruned at
  build time (the **SCT\\*-k'-Index**), using the out-degree and
  core-number observations of §4.1.

Every root-to-leaf path ``P`` carries *hold* vertices ``V_h(P)`` and *pivot*
vertices ``V_p(P)``; by Lemma 2 the k-cliques under ``P`` are exactly
"all holds + any ``k - |V_h|``-subset of pivots", so the path compactly
represents ``C(|V_p|, k - |V_h|)`` cliques.  All counting queries reduce to
binomial coefficients over the paths.

Array-native layout
-------------------
The tree is stored as flat integer columns in **DFS pre-order**: node ``i``'s
subtree is exactly the contiguous window ``[i, i + subtree[i])`` (the
XPath-accelerator window encoding over pre/post-order and subtree size), so
traversal is a linear scan with ``O(1)`` subtree skips instead of pointer
chasing.  Child lists are CSR ranges (``child_off``/``child_ids``), and every
column is an ``array('q')`` — or a ``memoryview`` cast straight out of an
``mmap``-ed v2 index file or a ``multiprocessing.shared_memory`` block, so
the service and the parallel engine share one copy of the index with zero
pickling (see ``docs/index-format.md``).
"""

from __future__ import annotations

import json
import mmap as _mmap
import time
import weakref
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice
from math import comb
from typing import Dict, IO, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..cliques.ordered_view import OrderedGraphView, ensure_view
from ..errors import IndexBuildError, IndexQueryError
from ..graph.graph import Graph
from ..obs import Recorder
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET, Budget
from ..resilience.checkpoint import Checkpointer, atomic_writer, require_match
from . import sct_format

__all__ = ["SCTPath", "SCTIndex", "HOLD", "PIVOT"]

# during a budgeted build, poll the budget every this many new tree nodes
# (roots are always polled; this bounds the latency inside one huge subtree)
_BUILD_POLL_NODES = 4096

_BUILD_CHECKPOINT_KIND = "sct-build"

# a streamed sweep packs the walk into tables of at most this many rows
_STREAM_ROWS = 1024

HOLD = 0
PIVOT = 1


def _release_mapping(mapping) -> None:
    """Best-effort unmap for a finalizer; escaped views win, GC finishes."""
    try:
        mapping.close()
    except (BufferError, ValueError):
        pass


def _expand_root_subtree(
    vertex: List[int],
    label: List[int],
    parent: List[int],
    depth_of: List[int],
    view: OrderedGraphView,
    root_pos: int,
    attach_to: int,
    poll=None,
) -> Optional[str]:
    """Expand one seed vertex's subtree onto the flat node arrays.

    This is the Pivoter expansion for the root at degeneracy position
    ``root_pos``, on the rows :meth:`OrderedGraphView.root_rows` gives
    that root; it appends the root child (a HOLD at depth 1, attached
    to ``attach_to``) and its whole subtree.  Nodes are appended the
    moment the walk descends into them, so ids are DFS pre-order by
    construction.  The serial build calls it once per unpruned root; the
    parallel build workers call it with per-worker arrays and
    ``attach_to=0``, then the parent splices the arrays together with a
    constant id offset — same code, so the node layout cannot drift.

    ``poll``, when given, is invoked once per expansion step; a truthy
    return value (a budget-exhaustion reason) rolls the partial subtree
    back — the arrays are left exactly on the preceding root boundary —
    and is returned to the caller.
    """
    root_start = len(vertex)
    adj, pos, cand0 = view.root_rows(root_pos)
    order = view.order

    def new_node(orig_vertex: int, node_label: int, par: int, depth: int) -> int:
        node = len(vertex)
        vertex.append(orig_vertex)
        label.append(node_label)
        parent.append(par)
        depth_of.append(depth)
        return node

    root_child = new_node(order[root_pos], HOLD, attach_to, 1)
    # Pivoter expansion on an explicit frame stack, so clique trees
    # deeper than the interpreter's recursion limit build fine.
    # Frame layout: [node, cand, depth, rest, removed]; ``rest`` is
    # None until the pivot branch has been spawned, afterwards it
    # holds the not-yet-branched non-neighbours of the pivot.
    stack: List[List] = [[root_child, cand0, 1, None, 0]]
    while stack:
        if poll is not None:
            reason = poll()
            if reason:
                # roll the current root's partial subtree back so the
                # frontier sits exactly on a root boundary
                del vertex[root_start:]
                del label[root_start:]
                del parent[root_start:]
                del depth_of[root_start:]
                return reason
        frame = stack[-1]
        node, cand, depth = frame[0], frame[1], frame[2]
        if frame[3] is None:
            if cand == 0:
                stack.pop()  # leaf
                continue
            # pivot: candidate with the most neighbours inside cand;
            # nothing can beat covering all other candidates, so a
            # full cover ends the scan early (near-clique subtrees
            # then cost O(1) pivot picks per node instead of O(|cand|))
            cand_size = cand.bit_count()
            best_p, best_cover = -1, -1
            mask = cand
            while mask:
                low = mask & -mask
                x = low.bit_length() - 1
                mask ^= low
                cover = (adj[x] & cand).bit_count()
                if cover > best_cover:
                    best_cover, best_p = cover, x
                    if cover == cand_size - 1:
                        break
            p = best_p
            frame[3] = cand & ~adj[p] & ~(1 << p)
            frame[4] = 1 << p
            # pivot branch: cliques avoiding every non-neighbour of p
            child = new_node(order[pos[p]], PIVOT, node, depth + 1)
            stack.append([child, cand & adj[p], depth + 1, None, 0])
            continue
        if frame[3]:
            # hold branches: each non-neighbour v_i of p gets the
            # cliques whose smallest excluded vertex is v_i
            low = frame[3] & -frame[3]
            x = low.bit_length() - 1
            frame[3] ^= low
            frame[4] |= low
            child = new_node(order[pos[x]], HOLD, node, depth + 1)
            stack.append(
                [child, (cand & ~frame[4]) & adj[x], depth + 1, None, 0]
            )
            continue
        stack.pop()
    return None


def _compute_max_depth(parent: Sequence[int], depth_of: Sequence[int]) -> List[int]:
    """Subtree max-depth per node, in one backward sweep.

    Children always have larger ids than their parent, so by the time a
    node propagates upward its own subtree maximum is final.
    """
    max_depth = list(depth_of)
    max_depth[0] = 0
    for node in range(len(parent) - 1, 0, -1):
        par = parent[node]
        if max_depth[node] > max_depth[par]:
            max_depth[par] = max_depth[node]
    return max_depth


def _compute_subtree_sizes(parent: Sequence[int]) -> List[int]:
    """Nodes in each subtree (the node included), in one backward sweep."""
    subtree = [1] * len(parent)
    for node in range(len(parent) - 1, 0, -1):
        subtree[parent[node]] += subtree[node]
    return subtree


def _csr_children(parent: Sequence[int]) -> Tuple[List[int], List[int]]:
    """CSR child ranges from the parent column.

    Returns ``(child_off, child_ids)``: node ``i``'s children are
    ``child_ids[child_off[i]:child_off[i + 1]]`` in ascending id order —
    which, with pre-order ids, is exactly creation (traversal) order.
    """
    n = len(parent)
    counts = [0] * n
    for node in range(1, n):
        counts[parent[node]] += 1
    child_off = [0] * (n + 1)
    for node in range(n):
        child_off[node + 1] = child_off[node] + counts[node]
    cursor = child_off[:n]
    child_ids = [0] * (n - 1 if n else 0)
    for node in range(1, n):
        par = parent[node]
        child_ids[cursor[par]] = node
        cursor[par] += 1
    return child_off, child_ids


def _record_build_tallies(
    recorder: Recorder,
    index: "SCTIndex",
    threshold: int,
    pruned_outdeg: int,
    pruned_core: int,
) -> None:
    """Emit the standard build counters/gauges (serial and parallel alike)."""
    if not recorder.enabled:
        return
    label = index._label
    n_nodes = index.n_tree_nodes
    n_holds = sum(1 for lab in label[1:] if lab == HOLD)
    recorder.counter("build/nodes", n_nodes)
    recorder.counter("build/holds", n_holds)
    recorder.counter("build/pivots", n_nodes - n_holds)
    recorder.counter("build/roots", index._child_off[1] - index._child_off[0])
    if threshold:
        recorder.counter("build/roots_pruned_outdeg", pruned_outdeg)
        recorder.counter("build/roots_pruned_core", pruned_core)
    recorder.gauge("build/max_depth", index._max_depth[0])
    recorder.gauge("build/threshold", threshold)


@dataclass(frozen=True)
class SCTPath:
    """One root-to-leaf path: a compressed set of cliques.

    ``holds`` and ``pivots`` are tuples of *original* vertex ids, in
    root-to-leaf order.  The union ``holds + pivots`` always induces a
    clique in the indexed graph.
    """

    holds: Tuple[int, ...]
    pivots: Tuple[int, ...]

    def clique_count(self, k: int) -> int:
        """Number of k-cliques represented by this path (Lemma 2)."""
        need = k - len(self.holds)
        if need < 0:
            return 0
        return comb(len(self.pivots), need)

    def pivot_engagement(self, k: int) -> int:
        """k-cliques of this path containing one *fixed* pivot vertex."""
        need = k - len(self.holds)
        if need < 1:
            return 0
        return comb(len(self.pivots) - 1, need - 1)

    def iter_cliques(self, k: int) -> Iterator[Tuple[int, ...]]:
        """Yield each k-clique under this path as a vertex tuple.

        The tuple layout is ``holds + chosen pivots``; combinations of
        pivots are generated in lexicographic order of pivot position, so
        iteration order is deterministic.
        """
        from itertools import combinations

        need = k - len(self.holds)
        if need < 0 or need > len(self.pivots):
            return
        if need == 0:
            yield self.holds
            return
        for chosen in combinations(self.pivots, need):
            yield self.holds + chosen

    @property
    def vertices(self) -> Tuple[int, ...]:
        """All vertices on the path (holds then pivots)."""
        return self.holds + self.pivots

    def __len__(self) -> int:
        return len(self.holds) + len(self.pivots)


class SCTIndex:
    """The SCT*-Index over a graph.

    Build with :meth:`SCTIndex.build`; query k-cliques for any
    ``k >= threshold`` without touching the graph again.

    Flat columns (node ids are DFS pre-order, 0 is the virtual root; each
    column is an ``array('q')``, or a ``memoryview('q')`` over an mmap or
    shared-memory backing):

    * ``_vertex[i]`` — original vertex id stored at node ``i`` (-1 for root);
    * ``_label[i]`` — ``HOLD`` or ``PIVOT`` (-1 for root);
    * ``_depth[i]`` — distance from the virtual root (its "level");
    * ``_max_depth[i]`` — the largest number of non-root vertices on any
      root-to-leaf path through node ``i``;
    * ``_subtree[i]`` — nodes in ``i``'s subtree, itself included, so the
      subtree occupies the window ``[i, i + _subtree[i])`` and the
      post-order number is ``i + _subtree[i] - 1``;
    * ``_child_off`` / ``_child_ids`` — CSR child ranges: node ``i``'s
      children are ``_child_ids[_child_off[i]:_child_off[i + 1]]``.
    """

    # broadcast/serialisation order of the columns (matches the v2 file)
    _COLUMN_ORDER = sct_format.COLUMNS

    def __init__(
        self,
        n_vertices: int,
        vertex: Sequence[int],
        label: Sequence[int],
        depth: Sequence[int],
        max_depth: Sequence[int],
        subtree: Sequence[int],
        child_off: Sequence[int],
        child_ids: Sequence[int],
        threshold: int,
        source=None,
    ):
        self._n_vertices = n_vertices
        self._vertex = vertex
        self._label = label
        self._depth = depth
        self._max_depth = max_depth
        self._subtree = subtree
        self._child_off = child_off
        self._child_ids = child_ids
        self._threshold = threshold
        # keepalive for zero-copy backings (mmap.mmap or SharedMemory)
        self._source = source

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: Graph,
        threshold: int = 0,
        view: Optional[OrderedGraphView] = None,
        options: Optional[RunOptions] = None,
    ) -> "SCTIndex":
        """Build the SCT*-Index of ``graph``.

        Parameters
        ----------
        graph:
            The undirected input graph.
        threshold:
            The ``k'`` of a partial **SCT\\*-k'-Index**: subtrees rooted at a
            vertex ``u`` with ``|N+(u)| + 1 < k'`` (out-degree pruning) or
            ``cn(u) + 1 < k'`` (degeneracy pruning) are skipped, shrinking
            the index while preserving k-clique listing for every
            ``k >= k'``.  ``0`` (default) builds the complete index, which
            answers every ``k``.
        view:
            Optional pre-built ordered view to reuse.
        options:
            A :class:`~repro.options.RunOptions` with the cross-cutting
            knobs; every default costs nothing.

            * ``recorder`` gets an ``index/build`` span, node/label
              counters and the per-lemma root-pruning tallies.
            * ``budget`` is polled per root subtree (and every few
              thousand nodes inside one).  On exhaustion the build saves
              a checkpoint when one is configured and raises the matching
              :class:`~repro.errors.BudgetExhausted` — a build cannot
              return a partial index, but it can resume.
            * ``checkpoint`` snapshots the build frontier (the flat node
              columns plus the next root to expand) atomically at
              root-subtree boundaries whenever a save is due, and clears
              it once the build completes.
            * ``resume`` restarts from that build snapshot (validated
              against the graph's ``n``/``m`` and the ``threshold``).  A
              resumed build is bit-identical to an uninterrupted one.  No
              snapshot present means a fresh build.
            * ``parallel`` with more than one worker expands the per-root
              subtrees in a process pool and merges them in seed order,
              producing a byte-identical index.
        """
        if threshold < 0:
            raise IndexBuildError(f"threshold must be >= 0, got {threshold}")
        opts = RunOptions.resolve(options)
        ckpt = Checkpointer.ensure(opts.checkpoint)
        with opts.recorder.span("index/build", observe="stage/index_build"):
            if opts.parallel is not None and opts.parallel.enabled:
                from ..parallel.build import parallel_build

                return parallel_build(
                    cls,
                    graph,
                    threshold,
                    view,
                    opts.recorder,
                    opts.budget,
                    ckpt,
                    opts.resume,
                    opts.parallel,
                )
            return cls._build(
                graph, threshold, view, opts.recorder, opts.budget, ckpt, opts.resume
            )

    @classmethod
    def _build(
        cls,
        graph: Graph,
        threshold: int,
        view: Optional[OrderedGraphView],
        recorder: Recorder,
        budget: Budget = NULL_BUDGET,
        ckpt: Optional[Checkpointer] = None,
        resume: bool = False,
    ) -> "SCTIndex":
        view = ensure_view(graph, view, recorder)
        n = view.n
        out = view.out
        core = view.core_number

        vertex: List[int] = [-1]
        label: List[int] = [-1]
        parent: List[int] = [0]
        depth_of: List[int] = [0]
        pruned_outdeg = 0
        pruned_core = 0
        start_root = 0
        if resume and ckpt is not None:
            payload = ckpt.load(_BUILD_CHECKPOINT_KIND)
            if payload is not None:
                require_match(
                    payload,
                    {"n": graph.n, "m": graph.m, "threshold": threshold},
                    _BUILD_CHECKPOINT_KIND,
                )
                vertex = payload["vertex"]
                label = payload["label"]
                parent = payload["parent"]
                depth_of = payload["depth_of"]
                pruned_outdeg = payload["pruned_outdeg"]
                pruned_core = payload["pruned_core"]
                start_root = payload["next_root"]
                if recorder.enabled:
                    recorder.counter("checkpoint/resumed")

        def frontier_state(next_root: int) -> Dict[str, object]:
            return {
                "n": graph.n,
                "m": graph.m,
                "threshold": threshold,
                "next_root": next_root,
                "vertex": vertex,
                "label": label,
                "parent": parent,
                "depth_of": depth_of,
                "pruned_outdeg": pruned_outdeg,
                "pruned_core": pruned_core,
            }

        def exhaust(reason: str, next_root: int):
            if ckpt is not None:
                ckpt.save(_BUILD_CHECKPOINT_KIND, frontier_state(next_root))
                if recorder.enabled:
                    recorder.counter("checkpoint/saves")
            if recorder.enabled:
                recorder.counter("budget/exhausted")
                recorder.gauge("budget/reason", reason)
                recorder.gauge("budget/stage", "index/build")
            return budget.error(reason, stage="index/build")

        nodes_since_poll = 0

        def poll() -> Optional[str]:
            # one check per expansion step; actual budget reads every
            # _BUILD_POLL_NODES steps, with the tally carried across roots
            nonlocal nodes_since_poll
            if not budget.active:
                return None
            nodes_since_poll += 1
            if nodes_since_poll >= _BUILD_POLL_NODES:
                nodes_since_poll = 0
                return budget.exceeded()
            return None

        step_poll = None if budget is NULL_BUDGET else poll
        with recorder.span("expand"):
            for i in range(start_root, n):
                if budget.active:
                    reason = budget.exceeded()
                    if reason:
                        raise exhaust(reason, i)
                if threshold:
                    if len(out[i]) + 1 < threshold:
                        pruned_outdeg += 1
                        continue  # out-degree pre-pruning
                    if core[i] + 1 < threshold:
                        pruned_core += 1
                        continue  # degeneracy pre-pruning
                reason = _expand_root_subtree(
                    vertex, label, parent, depth_of, view, i, 0, step_poll
                )
                if reason:
                    raise exhaust(reason, i)
                if ckpt is not None and ckpt.due(_BUILD_CHECKPOINT_KIND):
                    ckpt.save(_BUILD_CHECKPOINT_KIND, frontier_state(i + 1))
                    if recorder.enabled:
                        recorder.counter("checkpoint/saves")
        if ckpt is not None:
            # the frontier snapshot only describes an unfinished build;
            # leaving it behind would make a later resume= skip real work
            ckpt.clear(_BUILD_CHECKPOINT_KIND)

        with recorder.span("finalize"):
            index = cls._finalize_build(
                graph.n, vertex, label, parent, depth_of, threshold
            )
        _record_build_tallies(
            recorder, index, threshold, pruned_outdeg, pruned_core
        )
        return index

    @classmethod
    def _finalize_build(
        cls,
        n_vertices: int,
        vertex: List[int],
        label: List[int],
        parent: List[int],
        depth_of: List[int],
        threshold: int,
    ) -> "SCTIndex":
        """Freeze build-time lists into the flat column layout.

        The expansion appends nodes the moment it descends into them, so
        list position is already the DFS pre-order id; this derives the
        ``subtree``/``max_depth`` windows and the CSR child ranges from
        the ``parent`` column and packs everything into ``array('q')``.
        """
        max_depth = _compute_max_depth(parent, depth_of)
        subtree = _compute_subtree_sizes(parent)
        child_off, child_ids = _csr_children(parent)
        return cls(
            n_vertices=n_vertices,
            vertex=array("q", vertex),
            label=array("q", label),
            depth=array("q", depth_of),
            max_depth=array("q", max_depth),
            subtree=array("q", subtree),
            child_off=array("q", child_off),
            child_ids=array("q", child_ids),
            threshold=threshold,
        )

    @classmethod
    def _from_object_tree(
        cls,
        n_vertices: int,
        vertex: Sequence[int],
        label: Sequence[int],
        children: Sequence[Sequence[int]],
        max_depth: Sequence[int],
        threshold: int,
        origin="<memory>",
    ) -> "SCTIndex":
        """Canonicalise a legacy object tree (child lists) into columns.

        Nodes are renumbered to DFS pre-order following each child list
        in order, so a tree whose ids were already pre-order (every file
        this library writes) keeps its ids — and a hand-crafted v1 file
        with shuffled ids becomes a valid window-encoded index with the
        identical traversal sequence.  A node reachable twice (the
        structure is not a tree) or not at all fails loudly.
        """
        n = len(vertex)
        order: List[int] = []  # old ids in pre-order
        parent: List[int] = []  # parent (new ids), per new id
        depth: List[int] = []
        seen = [False] * n
        stack: List[Tuple[int, int, int]] = [(0, 0, 0)]
        while stack:
            old, par, dep = stack.pop()
            if seen[old]:
                raise IndexBuildError(
                    f"index file {origin!s} is not a tree: node {old} is "
                    "reachable twice"
                )
            seen[old] = True
            new = len(order)
            order.append(old)
            parent.append(par)
            depth.append(dep)
            for child in reversed(children[old]):
                stack.append((child, new, dep + 1))
        if len(order) != n:
            raise IndexBuildError(
                f"index file {origin!s} has {n - len(order)} node(s) "
                "unreachable from the root"
            )
        subtree = _compute_subtree_sizes(parent)
        child_off, child_ids = _csr_children(parent)
        return cls(
            n_vertices=n_vertices,
            vertex=array("q", (vertex[o] for o in order)),
            label=array("q", (label[o] for o in order)),
            depth=array("q", depth),
            max_depth=array("q", (max_depth[o] for o in order)),
            subtree=array("q", subtree),
            child_off=array("q", child_off),
            child_ids=array("q", child_ids),
            threshold=threshold,
        )

    @classmethod
    def _from_columns(
        cls, n_vertices: int, threshold: int, columns: Dict, source=None
    ) -> "SCTIndex":
        """Wrap ready-made columns (mmap views, shared memory, arrays)."""
        return cls(
            n_vertices=n_vertices,
            vertex=columns["vertex"],
            label=columns["label"],
            depth=columns["depth"],
            max_depth=columns["max_depth"],
            subtree=columns["subtree"],
            child_off=columns["child_off"],
            child_ids=columns["child_ids"],
            threshold=threshold,
            source=source,
        )

    def _columns(self) -> Dict[str, Sequence[int]]:
        """The flat columns by name, in no particular order."""
        return {
            "vertex": self._vertex,
            "label": self._label,
            "depth": self._depth,
            "max_depth": self._max_depth,
            "subtree": self._subtree,
            "child_off": self._child_off,
            "child_ids": self._child_ids,
        }

    # ------------------------------------------------------------------
    # basic stats
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Vertex count of the indexed graph."""
        return self._n_vertices

    @property
    def n_tree_nodes(self) -> int:
        """Number of tree nodes, excluding the virtual root."""
        return len(self._vertex) - 1

    @property
    def n_leaves(self) -> int:
        """Number of leaves (= number of root-to-leaf paths; on a complete
        index this equals the number of maximal cliques)."""
        return sum(1 for size in self._subtree[1:] if size == 1)

    @property
    def threshold(self) -> int:
        """The build threshold ``k'`` (0 for a complete index)."""
        return self._threshold

    @property
    def max_clique_size(self) -> int:
        """Size of the largest clique reachable through the index.

        On a complete index this is the graph's ``k_max`` (every
        root-to-leaf path induces a clique).
        """
        return self._max_depth[0]

    @property
    def backing(self) -> str:
        """Where the columns live: ``memory``, ``mmap`` or ``shared_memory``."""
        if self._source is None:
            return "memory"
        if isinstance(self._source, _mmap.mmap):
            return "mmap"
        return "shared_memory"

    def close(self) -> None:
        """Release an mmap / shared-memory backing (idempotent).

        A memory-backed index is untouched; a zero-copy one becomes
        unusable — its columns are dropped so the underlying mapping can
        be unmapped.  Only call when no query is in flight.
        """
        if self._source is None:
            return
        empty = array("q")
        self._vertex = self._label = self._depth = empty
        self._max_depth = self._subtree = empty
        self._child_off = self._child_ids = empty
        source, self._source = self._source, None
        try:
            source.close()
        except (BufferError, ValueError):  # a view escaped; GC will finish
            pass

    def apply_updates(
        self,
        graph: Graph,
        inserts=(),
        deletes=(),
        options: Optional[RunOptions] = None,
    ):
        """Apply an edge batch to this index **in place**.

        ``graph`` must be the graph this index was built from; the index
        is rebound to the incrementally rebuilt columns (only dirty root
        subtrees are re-expanded — see :mod:`repro.core.update`) and the
        returned :class:`~repro.core.update.DirtyRegion` carries the
        updated :class:`~repro.graph.Graph` plus the change summary.  The
        result is byte-identical to a from-scratch build of the updated
        graph at the same threshold.

        This mutation is single-writer: a concurrent reader of *this*
        object may observe torn columns.  Concurrent settings (the
        service) use :func:`repro.core.update.compute_update` instead and
        atomically swap in the fresh index it returns.
        """
        from .update import compute_update

        region = compute_update(
            self, graph, inserts, deletes, options=options
        )
        fresh = region.index
        self._n_vertices = fresh._n_vertices
        self._vertex = fresh._vertex
        self._label = fresh._label
        self._depth = fresh._depth
        self._max_depth = fresh._max_depth
        self._subtree = fresh._subtree
        self._child_off = fresh._child_off
        self._child_ids = fresh._child_ids
        # carry the cached ordered view so the *next* update skips
        # re-peeling the pre-update graph (steady-state update cost)
        self._update_view = getattr(fresh, "_update_view", None)
        # a zero-copy backing no longer feeds any column; drop our
        # reference and let the GC (or the load-time finalizer) unmap it
        # once the last escaped view dies — never eagerly
        self._source = None
        return region

    def _children_of(self, node: int) -> Sequence[int]:
        """Node ``node``'s children (CSR slice, ascending = DFS order)."""
        return self._child_ids[self._child_off[node]:self._child_off[node + 1]]

    def _root_ids(self) -> List[int]:
        """The virtual root's children (one per unpruned seed vertex)."""
        return list(self._children_of(0))

    def statistics(self) -> Dict[str, object]:
        """Structural statistics of the tree (for reports and ablations).

        Returns a dict with node/leaf/label counts, the depth histogram of
        the leaves, and the mean root-to-leaf path length.
        """
        label = self._label
        depth = self._depth
        subtree = self._subtree
        n_holds = sum(1 for lab in label[1:] if lab == HOLD)
        n_pivots = sum(1 for lab in label[1:] if lab == PIVOT)
        depth_histogram: Dict[int, int] = {}
        total_depth = 0
        n_leaves = 0
        for node in range(1, len(subtree)):
            if subtree[node] == 1:
                d = depth[node]
                depth_histogram[d] = depth_histogram.get(d, 0) + 1
                total_depth += d
                n_leaves += 1
        return {
            "tree_nodes": self.n_tree_nodes,
            "leaves": n_leaves,
            "holds": n_holds,
            "pivots": n_pivots,
            "max_depth": self._max_depth[0],
            "mean_leaf_depth": (total_depth / n_leaves) if n_leaves else 0.0,
            "leaf_depth_histogram": dict(sorted(depth_histogram.items())),
            "threshold": self._threshold,
        }

    def a_maximum_clique(self) -> List[int]:
        """One clique of size :attr:`max_clique_size`, as sorted vertex ids.

        Greedy max-depth descent: from the root, repeatedly enter a child
        whose max-depth equals the target.  Every root-to-leaf path induces
        a clique, so the collected vertices form a maximum one.  Cost is
        ``O(max_clique_size * branching)`` — no traversal of the tree.
        """
        target = self._max_depth[0]
        if target == 0:
            return []
        vertices: List[int] = []
        node = 0
        while self._subtree[node] > 1:
            node = next(
                c for c in self._children_of(node)
                if self._max_depth[c] == target
            )
            vertices.append(self._vertex[node])
        return sorted(vertices)

    def supports_k(self, k: int) -> bool:
        """Whether this (possibly partial) index can list k-cliques."""
        return k >= max(self._threshold, 1)

    def _require_k(self, k: int) -> None:
        if k < 1:
            raise IndexQueryError(f"k must be >= 1, got {k}")
        if not self.supports_k(k):
            raise IndexQueryError(
                f"partial SCT*-{self._threshold}-Index cannot answer k={k}; "
                f"rebuild with threshold <= {k}"
            )

    # ------------------------------------------------------------------
    # path traversal
    # ------------------------------------------------------------------

    def _iter_traversal(
        self,
        k: Optional[int],
        root_slice: Optional[Tuple[int, int]] = None,
    ) -> Iterator[Tuple[int, List[int], List[int]]]:
        """Shared pruned-DFS core behind path listing and node counting.

        Yields ``(node, holds, pivots)`` for every *visited* non-root node,
        in the order the recursive formulation would visit them.  ``holds``
        and ``pivots`` are live buffers maintained in place — appended on
        entry, popped on backtrack, O(1) amortised per tree edge —
        so consumers must snapshot them before storing.

        Node ids are pre-order, so the DFS is a *linear scan* over the id
        window: visiting ids in ascending order IS the depth-first visit,
        a pruned subtree is skipped by jumping ``subtree[i]`` ids forward,
        and backtracking pops every open subtree whose window ended.

        With ``k`` given, subtrees whose max-depth is below ``k`` are
        skipped (they cannot contain a k-clique), and so are hold branches
        entered with ``k`` holds already on the path (every k-clique of a
        path must contain *all* its holds).

        ``root_slice=(lo, hi)`` restricts the walk to the virtual root's
        children with positions ``lo <= pos < hi`` — the sharding handle
        of :mod:`repro.parallel`: consecutive root windows are adjacent id
        ranges, so concatenating the traversals of consecutive slices
        reproduces the full traversal exactly.
        """
        vertex = self._vertex
        label = self._label
        subtree = self._subtree
        max_depth = self._max_depth
        n_roots = self._child_off[1] - self._child_off[0]
        if root_slice is None:
            lo, hi = 0, n_roots
        else:
            lo, hi = root_slice[0], min(root_slice[1], n_roots)
        if lo >= hi:
            return
        child_ids = self._child_ids
        node = child_ids[lo]
        last_root = child_ids[hi - 1]
        end = last_root + subtree[last_root]
        holds: List[int] = []
        pivots: List[int] = []
        open_ends: List[int] = []  # window ends of the open ancestors
        open_bufs: List[List[int]] = []  # which buffer each one pushed to
        while node < end:
            while open_ends and open_ends[-1] <= node:
                open_ends.pop()
                open_bufs.pop().pop()
            if k is not None:
                if max_depth[node] < k:
                    node += subtree[node]
                    continue
                if label[node] == HOLD and len(holds) >= k:
                    node += subtree[node]
                    continue
            buf = holds if label[node] == HOLD else pivots
            buf.append(vertex[node])
            open_ends.append(node + subtree[node])
            open_bufs.append(buf)
            yield node, holds, pivots
            node += 1

    def _iter_leaf_buffers(
        self, k: int
    ) -> Iterator[Tuple[List[int], List[int]]]:
        """The live ``(holds, pivots)`` buffers at every leaf
        :meth:`iter_paths` would yield for ``k``, with no snapshot."""
        subtree = self._subtree
        for node, holds, pivots in self._iter_traversal(k):
            if subtree[node] == 1 and len(holds) <= k <= len(holds) + len(pivots):
                yield holds, pivots

    def iter_paths(
        self,
        k: Optional[int] = None,
        enforce_support: bool = True,
        options: Optional[RunOptions] = None,
        _root_slice: Optional[Tuple[int, int]] = None,
    ) -> Iterator[SCTPath]:
        """Yield root-to-leaf paths as :class:`SCTPath` objects.

        With ``k`` given, subtrees whose max-depth is below ``k`` are pruned
        (they cannot contain a k-clique), and so are branches that have
        accumulated more than ``k`` hold vertices (every k-clique of a path
        must contain *all* its holds).  Only paths with at least one
        k-clique are yielded.

        The walk is fully iterative (arbitrarily deep clique trees are fine)
        and uses O(tree depth) memory; each path is snapshotted from in-place
        hold/pivot buffers, so the per-path cost is the path length itself,
        not the recursion depth.

        ``enforce_support=False`` lets a *partial* SCT*-k'-Index answer
        ``k`` below its threshold; the paths then cover only the k-cliques
        living inside unpruned subtrees — the approximation §6.1 of the
        paper relies on ("most k-cliques in the densest subgraph come from
        larger cliques").

        ``options`` (a :class:`~repro.options.RunOptions`) applies three
        knobs; checkpoint/resume do not apply to a traversal:

        * an enabled ``recorder`` tallies ``paths/yielded`` and (with
          ``k``) ``paths/cliques`` — the number of k-cliques the yielded
          paths represent — once the traversal finishes or is closed;
        * an active ``budget`` is polled once per yielded path; on
          exhaustion the iterator raises the matching
          :class:`~repro.errors.BudgetExhausted` (a generator cannot
          degrade to a partial result — its consumers do);
        * ``parallel`` with more than one worker shards the walk across a
          process pool; the chunks are merged in order, so the yielded
          sequence is identical to a serial walk.
        """
        opts = RunOptions.resolve(options)
        if (
            opts.parallel is not None
            and opts.parallel.enabled
            and _root_slice is None
        ):
            return self._iter_paths_parallel(k, enforce_support, opts)
        if opts.recorder.enabled:
            return self._iter_paths_recorded(
                k, enforce_support, opts, _root_slice
            )
        return self._iter_paths_plain(
            k, enforce_support, opts.budget, _root_slice
        )

    def _iter_paths_plain(
        self,
        k: Optional[int],
        enforce_support: bool,
        budget: Budget,
        _root_slice: Optional[Tuple[int, int]],
    ) -> Iterator[SCTPath]:
        """The serial walk behind :meth:`iter_paths`, with no recorder."""
        if k is not None and enforce_support:
            self._require_k(k)
        if self.n_tree_nodes == 0:
            # empty tree: the virtual root is itself the only "path"
            if _root_slice is None and (k is None or k == 0):
                yield SCTPath((), ())
            return
        subtree = self._subtree
        for node, holds, pivots in self._iter_traversal(k, _root_slice):
            if subtree[node] == 1:
                if k is None or len(holds) <= k <= len(holds) + len(pivots):
                    if budget.active:
                        budget.check("index/paths")
                    yield SCTPath(tuple(holds), tuple(pivots))

    def _iter_paths_recorded(
        self,
        k: Optional[int],
        enforce_support: bool,
        opts: RunOptions,
        _root_slice: Optional[Tuple[int, int]] = None,
    ) -> Iterator[SCTPath]:
        """Counting wrapper behind :meth:`iter_paths` with a live recorder.

        Kept out of the plain traversal so the no-recorder path pays
        nothing; totals are flushed even on early ``close()``.
        """
        recorder = opts.recorder
        n_paths = 0
        n_cliques = 0
        started = time.perf_counter()
        try:
            for path in self._iter_paths_plain(
                k, enforce_support, opts.budget, _root_slice
            ):
                n_paths += 1
                if k is not None:
                    n_cliques += path.clique_count(k)
                yield path
        finally:
            recorder.observe(
                "stage/path_iteration", time.perf_counter() - started
            )
            recorder.counter("paths/yielded", n_paths)
            if k is not None:
                recorder.counter("paths/cliques", n_cliques)

    def _iter_paths_parallel(
        self,
        k: Optional[int],
        enforce_support: bool,
        opts: RunOptions,
    ) -> Iterator[SCTPath]:
        """Pool-backed :meth:`iter_paths`: chunked shards, merged in order.

        The engine owns a short-lived pool for this one traversal; the
        budget is polled once per merged chunk (cancellation latency is
        one chunk, not one path).  Totals mirror the recorded serial walk.
        """
        from ..parallel.engine import PathShardEngine

        if k is not None and enforce_support:
            self._require_k(k)
        recorder = opts.recorder
        budget = opts.budget
        n_paths = 0
        n_cliques = 0
        started = time.perf_counter()
        engine = PathShardEngine(self, opts.parallel, recorder=recorder)
        try:
            if not engine.has_chunks:
                yield from self.iter_paths(
                    k, enforce_support, options=opts.replace(parallel=None)
                )
                return
            tally_cliques = recorder.enabled and k is not None
            for chunk in engine.map("paths", k, enforce_support):
                if budget.active:
                    budget.check("index/paths")
                for holds, pivots in chunk:
                    n_paths += 1
                    path = SCTPath(holds, pivots)
                    if tally_cliques:
                        n_cliques += path.clique_count(k)
                    yield path
        finally:
            engine.close()
            if recorder.enabled:
                recorder.observe(
                    "stage/path_iteration", time.perf_counter() - started
                )
                recorder.counter("paths/yielded", n_paths)
                if k is not None:
                    recorder.counter("paths/cliques", n_cliques)

    def collect_paths(
        self, k: Optional[int] = None, enforce_support: bool = True
    ) -> List[SCTPath]:
        """Materialise :meth:`iter_paths` into a list."""
        return list(self.iter_paths(k, enforce_support=enforce_support))

    def traversal_node_count(self, k: Optional[int] = None) -> int:
        """Number of tree nodes visited when listing k-cliques.

        The ablation metric for max-depth pruning: compare ``k=None``
        (full traversal) with a specific ``k``.  Shares the traversal core
        with :meth:`iter_paths`, so the two always agree on pruning.
        """
        return sum(1 for _ in self._iter_traversal(k))

    # ------------------------------------------------------------------
    # counting queries
    # ------------------------------------------------------------------

    def count_k_cliques(self, k: int, options: Optional[RunOptions] = None) -> int:
        """Total number of k-cliques in the graph, straight off the index."""
        opts = RunOptions.resolve(options)
        self._require_k(k)
        if opts.parallel is not None and opts.parallel.enabled:
            from ..parallel.engine import PathShardEngine

            with PathShardEngine(self, opts.parallel, recorder=opts.recorder) as engine:
                if engine.has_chunks:
                    return engine.count_cliques(k)[1]
        return sum(
            path.clique_count(k)
            for path in self.iter_paths(k, options=opts.replace(parallel=None))
        )

    def clique_counts_by_size(self) -> Dict[int, int]:
        """Clique counts for every size from ``max(threshold, 1)`` up to
        ``max_clique_size`` — the full clique profile in one sweep."""
        lo = max(self._threshold, 1)
        totals: Dict[int, int] = {}
        for path in self.iter_paths(None):
            h, p = len(path.holds), len(path.pivots)
            for k in range(max(lo, h), h + p + 1):
                totals[k] = totals.get(k, 0) + comb(p, k - h)
        return {k: totals[k] for k in sorted(totals) if totals[k]}

    def per_vertex_counts(
        self, k: int, options: Optional[RunOptions] = None
    ) -> List[int]:
        """k-clique engagement ``|C_k(v, G)|`` for every vertex.

        Each path contributes ``C(|P|, k-|H|)`` to every hold and
        ``C(|P|-1, k-|H|-1)`` to every pivot (a pivot is optional, so it
        misses the cliques that skip it); see :func:`add_engagement`.
        """
        opts = RunOptions.resolve(options)
        self._require_k(k)
        if opts.parallel is not None and opts.parallel.enabled:
            from ..parallel.engine import PathShardEngine

            with PathShardEngine(self, opts.parallel, recorder=opts.recorder) as engine:
                if engine.has_chunks:
                    return engine.vertex_counts(k)
        counts = [0] * self._n_vertices
        add_engagement(self._iter_leaf_buffers(k), k, counts)
        return counts

    def count_in_subset(
        self, k: int, allowed: Iterable[int], enforce_support: bool = True
    ) -> int:
        """Number of k-cliques of ``G`` lying entirely inside ``allowed``.

        This is the recovery step of SCTL*-Sample (§6.1): restrict each
        path to the allowed vertices — all holds must survive, pivots are
        filtered — and re-apply Lemma 2 (:func:`scope_rows`' clique
        tally).  No clique enumeration happens.

        With ``enforce_support=False`` on a partial index and ``k`` below
        its threshold, the returned value is a *lower bound* (pruned
        subtrees may hide further k-cliques).
        """
        if enforce_support:
            self._require_k(k)
        in_scope = scope_flags(self._n_vertices, allowed)
        tallies = [0] * 5
        for _ in scope_rows(self._iter_leaf_buffers(k), k, tallies, in_scope):
            pass
        return tallies[4]

    def per_vertex_counts_in_subset(
        self, k: int, allowed: Iterable[int]
    ) -> Dict[int, int]:
        """Engagement ``|C_k(v, G[allowed])|`` for each allowed vertex."""
        self._require_k(k)
        n = self._n_vertices
        allowed_set: Set[int] = set(allowed)
        in_scope = scope_flags(n, allowed_set)
        counts = [0] * n
        add_engagement(self._iter_leaf_buffers(k), k, counts, in_scope)
        return {v: counts[v] if 0 <= v < n else 0 for v in allowed_set}

    def iter_k_cliques(self, k: int) -> Iterator[Tuple[int, ...]]:
        """Yield every k-clique by expanding the paths (listing query)."""
        self._require_k(k)
        for path in self.iter_paths(k):
            yield from path.iter_cliques(k)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the index to ``path`` as format v2.

        See ``docs/index-format.md``: the only format the library writes.

        The flat columns follow a JSON header line as a binary section, so
        :meth:`load` becomes an ``mmap`` plus a view cast.  The write
        is crash-safe: content goes to a temporary file in the same
        directory which then atomically replaces ``path``, so a crash (or
        injected fault) mid-save leaves any previous index at ``path``
        intact and readable.
        """
        with atomic_writer(path, binary=True) as handle:
            self._write_v2(handle)

    def _write_v2(self, handle: IO[bytes]) -> None:
        """Serialise the flat columns onto an open binary handle (format v2)."""
        sct_format.write_index(
            handle,
            n_vertices=self._n_vertices,
            n_nodes=len(self._vertex),
            threshold=self._threshold,
            columns=self._columns(),
        )

    @classmethod
    def load(cls, path) -> "SCTIndex":
        """Load an index written by :meth:`save`, or a legacy v1 file.

        The JSON header names the format: v2 files are memory-mapped
        (columns become zero-copy views, so load time is independent of
        index size), v1 files — no longer written, still read — go
        through the text parser and are canonicalised to the flat column
        layout.  A file of an unknown version fails with an
        :class:`~repro.errors.IndexBuildError` naming the found and
        supported versions.
        """
        header = sct_format.peek_header(path)
        found = header.get("format")
        if found == sct_format.FORMAT_V1:
            return cls._load_v1(path)
        if found == sct_format.FORMAT_V2:
            return cls._load_v2(path)
        supported = ", ".join(str(v) for v in sct_format.SUPPORTED_FORMATS)
        raise IndexBuildError(
            f"unsupported index format {found!r} in {path!s} "
            f"(supported formats: {supported})"
        )

    @classmethod
    def _load_v1(cls, path) -> "SCTIndex":
        """Parse a v1 JSON-lines index file.

        Fails with a version-naming error on a v2 (or newer) file rather
        than tripping over its binary section.
        """
        header = sct_format.peek_header(path)
        sct_format.require_format(header, sct_format.FORMAT_V1, path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                handle.readline()  # header, already parsed
                n_nodes = header["n_nodes"]
                n_vertices = header["n_vertices"]
                vertex: List[int] = []
                label: List[int] = []
                children: List[List[int]] = []
                max_depth: List[int] = []
                for node_id in range(n_nodes):
                    line = handle.readline()
                    fields = line.split()
                    v = int(fields[0])
                    if not (0 <= v < n_vertices or (node_id == 0 and v == -1)):
                        raise IndexBuildError(
                            f"vertex id {v} out of range for "
                            f"{n_vertices}-vertex graph in {path!s}: "
                            f"{line.strip()!r}"
                        )
                    vertex.append(v)
                    label.append(int(fields[1]))
                    max_depth.append(int(fields[2]))
                    n_kids = int(fields[3])
                    kids = [int(x) for x in fields[4:4 + n_kids]]
                    if len(kids) != n_kids:
                        raise IndexBuildError(
                            f"truncated child list in {path!s}"
                        )
                    children.append(kids)
        except IndexBuildError:
            raise
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            raise IndexBuildError(f"malformed index file {path!s}: {exc}") from exc
        for kids in children:
            for child in kids:
                if not 0 < child < n_nodes:
                    raise IndexBuildError(
                        f"child id {child} out of range in {path!s}"
                    )
        return cls._from_object_tree(
            n_vertices=header["n_vertices"],
            vertex=vertex,
            label=label,
            children=children,
            max_depth=max_depth,
            threshold=header["threshold"],
            origin=path,
        )

    @classmethod
    def _load_v2(cls, path) -> "SCTIndex":
        """Memory-map a v2 index file (zero-copy column views)."""
        header, columns, mapping = sct_format.read_index(path)
        n_nodes = header["n_nodes"]
        if (
            columns["vertex"][0] != -1
            or columns["subtree"][0] != n_nodes
            or columns["child_off"][0] != 0
            or columns["child_off"][n_nodes] != n_nodes - 1
        ):
            for column in columns.values():  # release views, then unmap
                if isinstance(column, memoryview):
                    column.release()
            mapping.close()
            raise IndexBuildError(
                f"inconsistent column data in index file {path!s} "
                "(root sentinel or window invariants violated)"
            )
        index = cls._from_columns(
            n_vertices=header["n_vertices"],
            threshold=header["threshold"],
            columns=columns,
            source=mapping,
        )
        # Keep the fd-backed mapping alive for exactly as long as any
        # reader can reach it: the file may be atomically replaced (an
        # incremental update) or unlinked (cache eviction) while this
        # object still serves in-flight queries — POSIX keeps the mapped
        # inode readable until the mapping itself is released, which the
        # finalizer does once the index object is garbage-collected.
        weakref.finalize(index, _release_mapping, mapping)
        return index

    def __repr__(self) -> str:
        return (
            f"SCTIndex(n_vertices={self._n_vertices}, "
            f"tree_nodes={self.n_tree_nodes}, threshold={self._threshold}, "
            f"max_clique={self.max_clique_size})"
        )


class SCTPathTable:
    """Valid root-to-leaf paths as flat ``array('q')`` columns.

    Row ``i`` is the path with vertices ``vertices[start[i]:end]``, where
    ``end`` is ``start[i + 1]`` (``len(vertices)`` for the last row): the
    first ``holds[i]`` of them are its holds and the rest its pivots, each
    in root-to-leaf order.  Rows keep the order of
    :meth:`SCTIndex.iter_paths`, so a sweep over a table replays a walk of
    the tree.  Iterating a table yields each row as a ``(holds, pivots)``
    pair of ``array('q')`` slices.

    One query at one ``k`` fills one table by one walk (:func:`query_paths`)
    and reads it in every sweep.  The rule that bounds it: a table is
    abandoned as soon as its int64 :attr:`entries` — path vertices plus 2
    per path — would outnumber the index's own, 7 per tree node plus 1
    (:func:`table_cap`).  Each sweep of that query then walks the tree
    again, packing the walk into tables of at most ``_STREAM_ROWS`` rows
    as it goes, so memory stays bounded by the index itself.
    """

    __slots__ = ("vertices", "start", "holds")

    def __init__(self) -> None:
        self.vertices = array("q")
        self.start = array("q")
        self.holds = array("q")

    @classmethod
    def pack(cls, paths: Iterable[SCTPath]) -> "SCTPathTable":
        """One table holding every path of ``paths``, read once."""
        table = cls()
        for path in paths:
            table.append(path.holds, path.pivots)
        return table

    def append(self, holds: Sequence[int], pivots: Sequence[int]) -> None:
        """Add one path as the last row."""
        self.start.append(len(self.vertices))
        self.holds.append(len(holds))
        self.vertices.extend(holds)
        self.vertices.extend(pivots)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def entries(self) -> int:
        """int64 entries held: path vertices plus 2 per path."""
        return len(self.vertices) + 2 * len(self.start)

    def __iter__(self) -> Iterator[Tuple[array, array]]:
        vertices = self.vertices
        ends = chain(islice(self.start, 1, None), (len(vertices),))
        for begin, n_holds, end in zip(self.start, self.holds, ends):
            mid = begin + n_holds
            yield vertices[begin:mid], vertices[mid:end]


def table_cap(index: SCTIndex) -> int:
    """The most int64 entries a query's path table may hold for ``index``."""
    return 7 * index.n_tree_nodes + 1


def _packed(
    pairs: Iterable[Tuple[Sequence[int], Sequence[int]]]
) -> Iterator[SCTPathTable]:
    """``(holds, pivots)`` pairs packed into tables of bounded size."""
    table = SCTPathTable()
    for holds, pivots in pairs:
        table.append(holds, pivots)
        if len(table) == _STREAM_ROWS:
            yield table
            table = SCTPathTable()
    if len(table):
        yield table


class QueryPaths:
    """The paths every sweep of one query reads; see :func:`query_paths`.

    Iterating yields ``(holds, pivots)`` rows in traversal order: from
    :attr:`table` when the query's table fits, otherwise from a fresh
    walk of the tree — through :attr:`engine` while it is open — packed
    into bounded tables as it is read.  :attr:`engine` is open only on a
    source that streams.
    """

    __slots__ = ("index", "k", "enforce_support", "table", "engine")

    def __init__(
        self,
        index: SCTIndex,
        k: int,
        table: Optional[SCTPathTable] = None,
        engine=None,
        enforce_support: bool = True,
    ):
        self.index = index
        self.k = k
        self.table = table
        self.engine = engine
        self.enforce_support = enforce_support

    def _walk(self) -> Iterable[Tuple[Sequence[int], Sequence[int]]]:
        if self.engine is not None:
            return chain.from_iterable(
                self.engine.map("paths", self.k, self.enforce_support)
            )
        return self.index._iter_leaf_buffers(self.k)

    def tables(self) -> Iterator[SCTPathTable]:
        """The query's table, or a fresh walk packed into bounded tables."""
        if self.table is not None:
            return iter((self.table,))
        return _packed(self._walk())

    def __iter__(self) -> Iterator[Tuple[Sequence[int], Sequence[int]]]:
        if self.table is not None:
            return iter(self.table)
        return chain.from_iterable(self.tables())

    @property
    def empty(self) -> bool:
        """Whether the query has no path; one that streams has overflowed
        the cap, so it has some."""
        return self.table is not None and not len(self.table)

    def close(self) -> None:
        """Shut the engine down; later sweeps walk the tree serially."""
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def __enter__(self) -> "QueryPaths":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def query_paths(
    index: SCTIndex,
    k: int,
    paths: Optional[Iterable[SCTPath]] = None,
    enforce_support: bool = True,
    options: Optional[RunOptions] = None,
) -> QueryPaths:
    """Fill one query's path table by one walk of ``index`` at ``k``.

    A caller's ``paths`` is read exactly once, into the table, whatever
    its size: a one-shot iterator works like a list.  Otherwise the tree
    is walked — through a :class:`~repro.parallel.engine.PathShardEngine`
    when ``options.parallel`` asks for workers — and the table is
    abandoned when it would outgrow the index (:class:`SCTPathTable`);
    the source then streams and keeps the engine open for pooled sweeps,
    while a kept table closes it right after the fill.  The fill runs
    under a ``refine/path_table`` span with ``refine/path_table_rows``
    and ``refine/path_table_entries`` counters; an abandoned table
    records a ``refine/path_table_streamed`` counter and a
    ``path_table_streamed`` event with ``k``, the entries seen and the
    cap.  Close the source (or use it as a context manager) to release
    the engine.
    """
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    engine = None
    if paths is None:
        if enforce_support:
            index._require_k(k)
        if opts.parallel is not None and opts.parallel.enabled:
            from ..parallel.engine import PathShardEngine

            engine = PathShardEngine(index, opts.parallel, recorder=recorder)
            if not engine.has_chunks:
                engine.close()
                engine = None
    source = QueryPaths(index, k, None, engine, enforce_support)
    try:
        with recorder.span("refine/path_table"):
            if paths is not None:
                table = SCTPathTable.pack(paths)
            else:
                table = SCTPathTable()
                cap = table_cap(index)
                for holds, pivots in source._walk():
                    table.append(holds, pivots)
                    if table.entries > cap:
                        if recorder.enabled:
                            recorder.counter("refine/path_table_streamed")
                            recorder.event(
                                "path_table_streamed",
                                k=k, entries=table.entries, cap=cap,
                            )
                        return source
            if recorder.enabled:
                recorder.counter("refine/path_table_rows", len(table))
                recorder.counter("refine/path_table_entries", table.entries)
            source.table = table
            source.close()  # no sweep of a kept table uses the pool
            return source
    except BaseException:
        source.close()
        raise


def path_rows(paths) -> Iterator[Tuple[Sequence[int], Sequence[int]]]:
    """``(holds, pivots)`` rows of a query's paths, a table, or any
    iterable of :class:`SCTPath`, packed into bounded tables as read."""
    if isinstance(paths, (QueryPaths, SCTPathTable)):
        return iter(paths)
    return chain.from_iterable(_packed((p.holds, p.pivots) for p in paths))


def scope_flags(n: int, vertices: Iterable[int]) -> List[bool]:
    """One flag per vertex of ``range(n)``, set for those in ``vertices``;
    ids outside ``[0, n)`` are dropped."""
    flags = [False] * n
    for v in vertices:
        if 0 <= v < n:
            flags[v] = True
    return flags


def scope_rows(
    rows: Iterable[Tuple[Sequence[int], Sequence[int]]],
    k: int,
    tallies: List[int],
    in_scope: Optional[Sequence[bool]] = None,
    live: Optional[Sequence[bool]] = None,
    counts=None,
) -> Iterator[Tuple[Sequence[int], Sequence[int]]]:
    """Yield every ``(holds, pivots)`` row of ``rows`` that keeps a
    k-clique inside a scope, its pivots cut to the scope.

    A row with ``p`` pivots holds ``C(p, t)`` k-cliques, ``t = k -
    |holds|`` (Lemma 2).  With ``in_scope`` (one flag per vertex) a row
    survives only when every hold is in scope and ``t`` of its in-scope
    pivots remain (clique engagement, Lemma 4), and ``live`` (one flag
    per vertex, read at the row's first hold) drops every row of a
    partition that is not live first (clique connectivity, Lemma 3).
    ``counts`` (indexed by vertex) receives the survivors' engagement:
    each hold is in all ``C(p, t)`` cliques, each pivot in ``C(p-1,
    t-1)``.  ``tallies`` is added to in place: rows read, rows of dead
    partitions, other rows dropped, pivots cut from survivors, and the
    survivors' k-cliques.  Survivors are yielded before the next row is
    read, so ``rows`` may be live buffers.
    """
    for holds, pivots in rows:
        tallies[0] += 1
        kept = pivots
        if in_scope is not None:
            if live is not None and not live[holds[0]]:
                tallies[1] += 1
                continue
            if not all(map(in_scope.__getitem__, holds)):
                tallies[2] += 1
                continue
            kept = list(compress(pivots, map(in_scope.__getitem__, pivots)))
        t = k - len(holds)
        p = len(kept)
        if t < 0 or t > p:
            tallies[2] += 1
            continue
        tallies[3] += len(pivots) - p
        share = comb(p, t)
        tallies[4] += share
        if counts is not None:
            for v in holds:
                counts[v] += share
            if t:
                share = comb(p - 1, t - 1)
                for v in kept:
                    counts[v] += share
        yield holds, kept


def add_engagement(
    rows: Iterable[Tuple[Sequence[int], Sequence[int]]],
    k: int,
    counts: List[int],
    in_scope: Optional[Sequence[bool]] = None,
) -> None:
    """Add the k-clique engagement of every ``(holds, pivots)`` row to
    ``counts``, indexed by vertex; with ``in_scope``, of the rows and
    pivots inside it (:func:`scope_rows`)."""
    for _ in scope_rows(rows, k, [0] * 5, in_scope, counts=counts):
        pass
