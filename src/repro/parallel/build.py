"""Pool-backed SCT*-Index construction, byte-identical to serial.

Each worker expands a contiguous range of seed vertices (in degeneracy
order) into local flat arrays through the very same
:func:`~repro.core.sct._expand_root_subtree` the serial build uses; the
parent splices each result onto the global arrays in seed order with a
constant id offset.  Because serial node ids are themselves the
concatenation of per-root expansions — DFS pre-order within each root —
the merged arrays, the derived subtree/CSR columns, and hence the saved
index file match the serial build byte for byte.

Budget handling: the parent polls its budget between chunk merges, and
each worker additionally carries the wall-clock seconds remaining at
dispatch as a local deadline.  A worker past its deadline returns its
completed root prefix plus the next unexpanded root; the parent merges
the prefix, checkpoints the frontier at that exact root boundary (the
same ``sct-build`` snapshot kind the serial build writes, so either
build mode can resume the other's checkpoint) and raises the budget's
:class:`~repro.errors.BudgetExhausted`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..cliques.ordered_view import ensure_view
from ..core.sct import (
    _BUILD_CHECKPOINT_KIND,
    _BUILD_POLL_NODES,
    _expand_root_subtree,
    _record_build_tallies,
)
from ..resilience.checkpoint import require_match
from .config import ParallelConfig
from .engine import _quantile_cuts

__all__ = ["parallel_build"]

# per-process worker state, populated by the pool initializer
_BUILD_STATE: Dict[str, object] = {}


def _init_build_worker(view, threshold) -> None:
    _BUILD_STATE.update(view=view, threshold=threshold)


def _build_chunk(task):
    """Expand roots ``[lo, hi)`` into local arrays; return them 0-offset.

    ``remaining`` is the seconds left on the caller's wall budget at
    dispatch (None = unbounded).  On deadline the completed root prefix
    is returned with status ``"exhausted"`` and the first unexpanded
    root — never an exception, which would lose its reason/stage detail
    crossing the pool's pickling boundary.
    """
    lo, hi, remaining = task
    view = _BUILD_STATE["view"]
    out = view.out
    core = view.core_number
    threshold = _BUILD_STATE["threshold"]
    deadline = time.monotonic() + remaining if remaining is not None else None

    vertex: List[int] = [-1]
    label: List[int] = [-1]
    parent: List[int] = [0]
    depth_of: List[int] = [0]
    pruned_outdeg = 0
    pruned_core = 0

    poll = None
    if deadline is not None:
        steps = [0]

        def poll() -> Optional[str]:
            steps[0] += 1
            if steps[0] >= _BUILD_POLL_NODES:
                steps[0] = 0
                if time.monotonic() >= deadline:
                    return "deadline"
            return None

    status = "ok"
    next_root = hi
    for i in range(lo, hi):
        if deadline is not None and time.monotonic() >= deadline:
            status = "exhausted"
            next_root = i
            break
        if threshold:
            if len(out[i]) + 1 < threshold:
                pruned_outdeg += 1
                continue
            if core[i] + 1 < threshold:
                pruned_core += 1
                continue
        reason = _expand_root_subtree(
            vertex, label, parent, depth_of, view, i, 0, poll
        )
        if reason:
            status = "exhausted"
            next_root = i
            break
    return (
        status,
        next_root,
        vertex[1:],
        label[1:],
        parent[1:],
        depth_of[1:],
        pruned_outdeg,
        pruned_core,
    )


def _root_range_chunks(out, start_root: int, n: int, target: int) -> List[Tuple[int, int]]:
    """Contiguous seed ranges over ``[start_root, n)``, weighted by
    out-degree (a proxy for subtree cost known before expansion)."""
    if start_root >= n:
        return []
    weights = [len(out[i]) + 1 for i in range(start_root, n)]
    return [
        (start_root + lo, start_root + hi)
        for lo, hi in _quantile_cuts(weights, target)
    ]


def parallel_build(
    cls,
    graph,
    threshold: int,
    view,
    recorder,
    budget,
    ckpt,
    resume: bool,
    config: ParallelConfig,
):
    """The pool-backed body behind ``SCTIndex.build`` with workers."""
    view = ensure_view(graph, view, recorder)
    n = view.n
    out = view.out

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

    chunks = _root_range_chunks(
        out, start_root, n, config.workers * config.chunks_per_worker
    )
    with recorder.span("expand"):
        if chunks:
            remaining = getattr(budget, "remaining", lambda: None)()
            tasks = [(lo, hi, remaining) for lo, hi in chunks]
            ctx = config.context()
            pool = ctx.Pool(
                processes=config.workers,
                initializer=_init_build_worker,
                # a worker needs the out-lists, the order and the core
                # numbers; the graph's adjacency sets stay in this process
                initargs=(replace(view, graph=None), threshold),
                maxtasksperchild=config.max_tasks_per_child,
            )
            try:
                results = pool.imap(_build_chunk, tasks)
                for (lo, hi), result in zip(chunks, results):
                    if budget.active:
                        reason = budget.exceeded()
                        if reason:
                            raise exhaust(reason, lo)
                    (
                        status, next_root, w_vertex, w_label,
                        w_parent, w_depth, w_po, w_pc,
                    ) = result
                    # splice: worker ids are 1-based locally, so a constant
                    # offset relocates them; parent 0 (the worker's virtual
                    # root) stays the global virtual root
                    base = len(vertex) - 1
                    vertex.extend(w_vertex)
                    label.extend(w_label)
                    depth_of.extend(w_depth)
                    for p in w_parent:
                        parent.append(0 if p == 0 else p + base)
                    pruned_outdeg += w_po
                    pruned_core += w_pc
                    if recorder.enabled:
                        recorder.counter("parallel/build_chunks")
                    if status == "exhausted":
                        raise exhaust("deadline", next_root)
                    if ckpt is not None and ckpt.due(_BUILD_CHECKPOINT_KIND):
                        ckpt.save(_BUILD_CHECKPOINT_KIND, frontier_state(hi))
                        if recorder.enabled:
                            recorder.counter("checkpoint/saves")
            finally:
                pool.terminate()
                pool.join()
    if ckpt is not None:
        ckpt.clear(_BUILD_CHECKPOINT_KIND)
    with recorder.span("finalize"):
        index = cls._finalize_build(
            graph.n, vertex, label, parent, depth_of, threshold
        )
    _record_build_tallies(
        recorder, index, threshold, pruned_outdeg, pruned_core
    )
    return index
