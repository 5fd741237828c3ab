"""Incremental SCT*-Index maintenance: ``apply_updates`` and ``DirtyRegion``.

The SCT*-Index decomposes into per-root subtrees, one per degeneracy
position, and the expansion of root ``u`` reads only ``S = {u} | N+(u)``
of the ordered view: candidate sets start from ``N+(u)`` and only ever
shrink, and the rows they are intersected with come from
:meth:`~repro.cliques.ordered_view.OrderedGraphView.root_rows`, as in
the build.  An edge batch therefore localises: after re-deriving the
ordered view of the updated graph, any root whose out-neighbour *vertex
sequence* is unchanged — and whose ``S`` contains no updated edge — must
expand to exactly the same node sequence as before, so its old column
window is spliced into the new index verbatim with a constant id offset
(the same splicing trick :func:`~repro.parallel.build.parallel_build`
uses to merge worker chunks).  Only the remaining *dirty* roots are
re-expanded.

The splice works directly on the flat columns: ``vertex`` / ``label`` /
``depth`` / ``max_depth`` / ``subtree`` windows are position-independent
(raw ``memcpy``), while the CSR ``child_off`` / ``child_ids`` entries are
rebased by the constant offset.  No global finalisation pass runs, so
the cost of an update is proportional to the dirty region plus one
``O(n + m)`` peel and view — not to the index size.  The new view is
cached on the returned index, so a sequence of updates peels each graph
version once.

Because the serial build is itself nothing but per-root expansions
concatenated in degeneracy order, the updated index is **byte-identical**
to a from-scratch :meth:`SCTIndex.build` of the updated graph — parity
is structural, not a best-effort approximation.

Two entry points:

* :func:`compute_update` — pure: returns a fresh index (and graph)
  inside a :class:`DirtyRegion`, leaving the input index untouched.
  This is what the service uses so in-flight queries keep reading the
  old object.
* :meth:`SCTIndex.apply_updates` — in-place convenience wrapper that
  rebinds the index's columns to the fresh ones.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cliques.ordered_view import build_ordered_view
from ..errors import IndexBuildError, InvalidParameterError
from ..graph.graph import Graph
from ..options import RunOptions
from ..resilience.budget import NULL_BUDGET
from .sct import (
    _BUILD_POLL_NODES,
    SCTIndex,
    _compute_max_depth,
    _compute_subtree_sizes,
    _csr_children,
    _expand_root_subtree,
)

__all__ = ["DirtyRegion", "apply_edge_updates", "compute_update"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class DirtyRegion:
    """Summary of one incremental update: what changed and what was kept.

    ``graph`` and ``index`` are the *updated* graph and SCT*-Index;
    ``dirty_vertices`` is the set of vertices appearing in any rebuilt
    root subtree (plus the updated edges' endpoints) — the invalidation
    scope the service uses to evict cached results.
    """

    graph: Graph
    index: SCTIndex
    inserts: Tuple[Edge, ...]
    deletes: Tuple[Edge, ...]
    n_roots: int
    dirty_roots: int
    reused_roots: int
    pruned_roots: int
    nodes_rebuilt: int
    nodes_reused: int
    dirty_vertices: FrozenSet[int] = field(default_factory=frozenset)

    @property
    def dirty_fraction(self) -> float:
        """Fraction of degeneracy positions whose subtree was rebuilt."""
        if not self.n_roots:
            return 0.0
        return self.dirty_roots / self.n_roots

    def intersects(self, vertices: Sequence[int]) -> bool:
        """Whether any of ``vertices`` lies in the dirty region."""
        dirty = self.dirty_vertices
        return any(v in dirty for v in vertices)

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest for envelopes, logs and benches."""
        return {
            "inserts": len(self.inserts),
            "deletes": len(self.deletes),
            "n_roots": self.n_roots,
            "dirty_roots": self.dirty_roots,
            "reused_roots": self.reused_roots,
            "pruned_roots": self.pruned_roots,
            "dirty_fraction": round(self.dirty_fraction, 6),
            "nodes_rebuilt": self.nodes_rebuilt,
            "nodes_reused": self.nodes_reused,
            "dirty_vertex_count": len(self.dirty_vertices),
        }


_LANE_ONE = b"\x01" + b"\x00" * 7


def _shifted_lanes(view: memoryview, shift: int) -> bytes:
    """The int64 lanes of ``view`` with ``shift`` added to every lane.

    Node ids and CSR offsets fit in 63 bits and stay non-negative after
    the shift, so no carry (or borrow) ever crosses a lane boundary —
    adding ``shift`` to every lane is one big-int add of a replicated
    constant: three C-level passes over the window instead of a Python
    loop per node.  This is what keeps the splice cost a memcpy even
    when a window's id offset changes.
    """
    data = bytes(view)
    val = int.from_bytes(data, "little")
    rep = int.from_bytes(_LANE_ONE * (len(data) >> 3), "little")
    if shift >= 0:
        val += shift * rep
    else:
        val -= (-shift) * rep
    return val.to_bytes(len(data), "little")


def _normalize_edges(edges, n: int, kind: str) -> Tuple[Edge, ...]:
    """Validate an edge batch and normalise each pair to ``u < v``."""
    out: List[Edge] = []
    seen = set()
    for pair in edges:
        try:
            u, v = pair
            u, v = int(u), int(v)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"{kind} entries must be (u, v) vertex pairs, got {pair!r}"
            )
        if u == v:
            raise InvalidParameterError(
                f"cannot {kind} a self-loop on vertex {u}"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(
                f"{kind} edge ({u}, {v}) out of range for n={n} "
                "(the vertex set is fixed; updates change edges only)"
            )
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise InvalidParameterError(
                f"duplicate {kind} of edge {edge} in one batch"
            )
        seen.add(edge)
        out.append(edge)
    return tuple(out)


def apply_edge_updates(
    graph: Graph, inserts=(), deletes=()
) -> Tuple[Graph, Tuple[Edge, ...], Tuple[Edge, ...]]:
    """The updated graph ``(E - deletes) | inserts``, strictly validated.

    Graphs are immutable, so this builds a new :class:`Graph` over the
    same vertex set (structurally shared with the input — only touched
    adjacency rows are copied).  Every delete must name an existing
    edge, every insert a missing one, and no edge may appear in both
    batches — silent no-ops would desynchronise the caller's idea of
    ``graph_version`` from the actual edge set.
    """
    n = graph.n
    ins = _normalize_edges(inserts, n, "insert")
    dels = _normalize_edges(deletes, n, "delete")
    both = set(ins) & set(dels)
    if both:
        raise InvalidParameterError(
            f"edge(s) {sorted(both)} appear in both inserts and deletes"
        )
    for edge in dels:
        if not graph.has_edge(*edge):
            raise InvalidParameterError(
                f"cannot delete edge {edge}: not present in the graph"
            )
    for edge in ins:
        if graph.has_edge(*edge):
            raise InvalidParameterError(
                f"cannot insert edge {edge}: already present in the graph"
            )
    return graph._with_edge_delta(ins, dels), ins, dels


def _old_root_windows(index: SCTIndex) -> Dict[int, Tuple[int, int]]:
    """Map each root's *vertex* to its ``(start, size)`` column window."""
    child_off = index._child_off
    vertex = index._vertex
    subtree = index._subtree
    windows: Dict[int, Tuple[int, int]] = {}
    for r in index._child_ids[child_off[0]:child_off[1]]:
        windows[vertex[r]] = (r, subtree[r])
    return windows


def compute_update(
    index: SCTIndex,
    graph: Graph,
    inserts=(),
    deletes=(),
    options: Optional[RunOptions] = None,
) -> DirtyRegion:
    """Incrementally rebuild ``index`` for ``graph`` plus an edge batch.

    ``index`` must be the SCT*-Index of ``graph`` (same threshold); the
    input objects are left untouched and a fresh graph + index come back
    inside the :class:`DirtyRegion`.  The new index is byte-identical to
    ``SCTIndex.build(new_graph, threshold=index.threshold)``.

    The run honours ``options.recorder`` (an ``index/update`` span
    observing the ``stage/index_update`` histogram, plus ``update/*``
    counters) and ``options.budget`` — polled per root and every few
    thousand expanded nodes; exhaustion raises
    :class:`~repro.errors.BudgetExhausted` with stage ``index/update``
    and leaves the inputs untouched, so the caller simply keeps the old
    index.  Checkpoint/resume and parallel are not supported for updates
    (a from-scratch ``build`` covers those).
    """
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    budget = opts.budget
    if index.n_vertices != graph.n:
        raise IndexBuildError(
            f"index covers {index.n_vertices} vertices but the graph has "
            f"{graph.n}; apply_updates needs the index of this exact graph"
        )
    with recorder.span("index/update", observe="stage/index_update"):
        new_graph, ins, dels = apply_edge_updates(graph, inserts, deletes)
        old_view = getattr(index, "_update_view", None)
        if old_view is None or old_view.graph is not graph:
            old_view = build_ordered_view(graph)
        view = build_ordered_view(new_graph)
        n = view.n
        windows = _old_root_windows(index)
        threshold = index.threshold
        out = view.out
        order = view.order
        core = view.core_number
        old_pos = old_view.position
        old_order = old_view.order
        old_out = old_view.out
        old_core = old_view.core_number
        touched = ins + dels
        position = view.position
        # roots whose S = {i} | N+(i) holds both endpoints of an updated
        # edge: the lower endpoint itself when the edge is present, and
        # every common neighbour earlier than both endpoints
        touched_roots = set()
        for a, b in touched:
            low = min(position[a], position[b])
            if new_graph.has_edge(a, b):
                touched_roots.add(low)
            for c in new_graph.neighbors(a) & new_graph.neighbors(b):
                if position[c] < low:
                    touched_roots.add(position[c])

        def is_clean(i: int, u: int) -> bool:
            """Whether root ``u``'s expansion is provably unchanged.

            The expansion of a root reads only ``S = {u} | N+(u)``: the
            candidate vertices, their pairwise adjacency, and their
            *relative* degeneracy order (every bitset scan walks positions
            in increasing order, so only the order within ``S`` matters —
            a global position shift elsewhere is irrelevant).  The root is
            clean when the out-neighbour vertex sequence is identical in
            both views, no updated edge has both endpoints inside ``S``,
            and the threshold-pruning decision is unchanged.
            """
            oi = old_pos[u]
            if threshold and (
                (core[i] + 1 < threshold) != (old_core[oi] + 1 < threshold)
            ):
                return False
            later, old_later = out[i], old_out[oi]
            if len(later) != len(old_later) or i in touched_roots:
                return False
            return list(map(order.__getitem__, later)) == list(
                map(old_order.__getitem__, old_later)
            )

        nodes_since_poll = 0

        def poll() -> Optional[str]:
            nonlocal nodes_since_poll
            if not budget.active:
                return None
            nodes_since_poll += 1
            if nodes_since_poll >= _BUILD_POLL_NODES:
                nodes_since_poll = 0
                return budget.exceeded()
            return None

        def exhaust(reason: str):
            if recorder.enabled:
                recorder.counter("budget/exhausted")
                recorder.gauge("budget/reason", reason)
                recorder.gauge("budget/stage", "index/update")
            return budget.error(reason, stage="index/update")

        step_poll = None if budget is NULL_BUDGET else poll

        # ---- pass 1: classify every root, splice plan ------------------
        # segments[j] is ("c", start, size) for a clean reused window or
        # ("d", pos) for a root awaiting re-expansion in pass 2.
        segments: List[tuple] = []
        dirty_positions: List[int] = []
        dirty_roots = 0
        reused_roots = 0
        pruned_roots = 0
        nodes_reused = 0
        dirty_vertices = set()
        for a, b in touched:
            dirty_vertices.add(a)
            dirty_vertices.add(b)
        for i in range(n):
            if budget.active:
                reason = budget.exceeded()
                if reason:
                    raise exhaust(reason)
            clean = is_clean(i, order[i])
            if threshold and (
                len(out[i]) + 1 < threshold or core[i] + 1 < threshold
            ):
                # a clean root's pruning inputs are unchanged, so it was
                # pruned in the old build too; a dirty pruned root simply
                # contributes nothing to the new index
                pruned_roots += 1
                if not clean:
                    dirty_roots += 1
                    dirty_vertices.add(order[i])
                continue
            if clean:
                window = windows.get(order[i])
                if window is None:
                    raise IndexBuildError(
                        f"index is missing the subtree of vertex "
                        f"{order[i]}; apply_updates needs the index built "
                        "from this exact graph and threshold"
                    )
                segments.append(("c",) + window)
                reused_roots += 1
                nodes_reused += window[1]
                continue
            dirty_roots += 1
            dirty_vertices.add(order[i])
            dirty_vertices.update(map(order.__getitem__, out[i]))
            dirty_positions.append(i)
            segments.append(("d", i))

        # ---- pass 2: re-expand the dirty roots -------------------------
        nodes_rebuilt = 0
        rebuilt: Dict[int, tuple] = {}
        for i in dirty_positions:
            if budget.active:
                reason = budget.exceeded()
                if reason:
                    raise exhaust(reason)
            # local arrays with their own virtual-root stub, exactly like
            # a parallel-build worker chunk; spliced with a constant
            # offset in pass 3
            lv: List[int] = [-1]
            ll: List[int] = [-1]
            lp: List[int] = [0]
            ld: List[int] = [0]
            reason = _expand_root_subtree(lv, ll, lp, ld, view, i, 0, step_poll)
            if reason:
                raise exhaust(reason)
            nodes_rebuilt += len(lv) - 1
            lmd = _compute_max_depth(lp, ld)
            lst = _compute_subtree_sizes(lp)
            lco, lci = _csr_children(lp)
            rebuilt[i] = (lv, ll, ld, lmd, lst, lco, lci)

        # ---- pass 3: assemble the flat columns -------------------------
        sizes = [
            seg[2] if seg[0] == "c" else len(rebuilt[seg[1]][0]) - 1
            for seg in segments
        ]
        n_nodes = 1 + sum(sizes)

        vertex = array("q", (-1,))
        label = array("q", (-1,))
        depth = array("q", (0,))
        max_depth = array("q", (0,))
        subtree = array("q", (n_nodes,))
        child_off = array("q", (0,))
        child_ids = array("q")
        # the virtual root's child list (one entry per kept root) comes
        # first in child_ids; root j's node id is 1 + the sizes before it
        start = 1
        for size in sizes:
            child_ids.append(start)
            start += size

        # Coalesce runs of clean windows that were adjacent in the old
        # index: their CSR blocks are contiguous and the id/offset shifts
        # are constant across the run, so a whole run splices with one
        # memcpy (or one lane-shift) per column instead of one per root.
        plan: List[tuple] = []
        md_starts: List[int] = []  # old window starts, for the root max
        for seg, size in zip(segments, sizes):
            if seg[0] == "c":
                a = seg[1]
                md_starts.append(a)
                if plan and plan[-1][0] == "c" and plan[-1][1] + plan[-1][2] == a:
                    plan[-1] = ("c", plan[-1][1], plan[-1][2] + size)
                else:
                    plan.append(("c", a, size))
            else:
                plan.append(seg)

        # byte-cast views of the old columns: array.frombytes only takes
        # byte buffers, so copies go through these with 8-byte strides
        bv_vertex = memoryview(index._vertex).cast("B")
        bv_label = memoryview(index._label).cast("B")
        bv_depth = memoryview(index._depth).cast("B")
        bv_max_depth = memoryview(index._max_depth).cast("B")
        bv_subtree = memoryview(index._subtree).cast("B")
        bv_child_off = memoryview(index._child_off).cast("B")
        bv_child_ids = memoryview(index._child_ids).cast("B")
        old_max_depth = index._max_depth
        old_child_off = index._child_off

        md_root = 0
        for a in md_starts:
            if old_max_depth[a] > md_root:
                md_root = old_max_depth[a]
        new_start = 1
        for seg in plan:
            ids_base = len(child_ids)
            if seg[0] == "c":
                a, size = seg[1], seg[2]
                b = a + size
                # position-independent columns: straight memcpy
                vertex.frombytes(bv_vertex[8 * a:8 * b])
                label.frombytes(bv_label[8 * a:8 * b])
                depth.frombytes(bv_depth[8 * a:8 * b])
                max_depth.frombytes(bv_max_depth[8 * a:8 * b])
                subtree.frombytes(bv_subtree[8 * a:8 * b])
                # CSR entries: children of window nodes all lie inside the
                # window (they are subtree members), and their block in
                # child_ids is contiguous — rebase by constant offsets
                ca = old_child_off[a]
                cb = old_child_off[b]
                shift = ids_base - ca
                if shift == 0:
                    child_off.frombytes(bv_child_off[8 * a:8 * b])
                else:
                    child_off.frombytes(
                        _shifted_lanes(bv_child_off[8 * a:8 * b], shift)
                    )
                delta = new_start - a
                if delta == 0:
                    child_ids.frombytes(bv_child_ids[8 * ca:8 * cb])
                else:
                    child_ids.frombytes(
                        _shifted_lanes(bv_child_ids[8 * ca:8 * cb], delta)
                    )
            else:
                lv, ll, ld, lmd, lst, lco, lci = rebuilt[seg[1]]
                size = len(lv) - 1
                vertex.extend(lv[1:])
                label.extend(ll[1:])
                depth.extend(ld[1:])
                max_depth.extend(lmd[1:])
                subtree.extend(lst[1:])
                if lmd[1] > md_root:
                    md_root = lmd[1]
                # local id t maps to global id t - 1 + new_start; the
                # local stub's single child entry (the root) is dropped
                shift = ids_base - lco[1]
                child_off.extend([x + shift for x in lco[1:-1]])
                delta = new_start - 1
                child_ids.extend([x + delta for x in lci[1:]])
            new_start += size
        child_off.append(n_nodes - 1)
        max_depth[0] = md_root

        new_index = SCTIndex(
            n_vertices=new_graph.n,
            vertex=vertex,
            label=label,
            depth=depth,
            max_depth=max_depth,
            subtree=subtree,
            child_off=child_off,
            child_ids=child_ids,
            threshold=threshold,
        )
        # steady state: the next update's "old view" is this one's new view
        new_index._update_view = view
        if recorder.enabled:
            recorder.counter("update/edges_inserted", len(ins))
            recorder.counter("update/edges_deleted", len(dels))
            recorder.counter("update/dirty_roots", dirty_roots)
            recorder.counter("update/reused_roots", reused_roots)
            recorder.counter("update/nodes_rebuilt", nodes_rebuilt)
            recorder.counter("update/nodes_reused", nodes_reused)
            recorder.gauge(
                "update/dirty_fraction",
                round(dirty_roots / n, 6) if n else 0.0,
            )
        return DirtyRegion(
            graph=new_graph,
            index=new_index,
            inserts=ins,
            deletes=dels,
            n_roots=n,
            dirty_roots=dirty_roots,
            reused_roots=reused_roots,
            pruned_roots=pruned_roots,
            nodes_rebuilt=nodes_rebuilt,
            nodes_reused=nodes_reused,
            dirty_vertices=frozenset(dirty_vertices),
        )
