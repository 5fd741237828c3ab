"""The path-shard engine: pooled sweeps over contiguous root ranges.

Sharding unit
-------------
Node ids in an :class:`~repro.core.SCTIndex` are DFS pre-order, so each
child of the virtual root owns one contiguous id window ``[r, r +
subtree[r])`` and the root children themselves appear in seed
(degeneracy) order.  A *chunk* is a contiguous range ``[lo, hi)`` of
root-child positions; the pruned DFS of ``iter_paths`` restricted to a
chunk yields exactly the serial paths of that range, and concatenating
chunk results in chunk order reproduces the full serial path sequence.
Every deterministic guarantee of :mod:`repro.parallel` reduces to this
one property.  Chunk sizes come straight off the ``subtree`` column —
exact node counts, no contiguity heuristic.

Worker model
------------
Workers are plain ``multiprocessing.Pool`` processes.  The index's flat
columns are broadcast once per pool through one
``multiprocessing.shared_memory`` block: the initializer argument is a
tiny layout tuple (block name + per-column offsets), and each worker
maps the block and casts views — no per-worker pickling of the index,
under ``spawn`` just as under ``fork``.  Tasks carry only chunk bounds,
and ``imap`` streams results back in submission order.  Workers never
see the caller's budget: the parent polls between chunk results, so
cancellation latency is one chunk and exception-pickling subtleties
stay out of the pool.  With an enabled parent recorder each worker runs
its own :class:`~repro.obs.MetricsRecorder` and ships the snapshot home
alongside the result, where it is absorbed into the parent trace.
"""

from __future__ import annotations

import atexit
import os
import signal
import time
import weakref
from collections import defaultdict
from multiprocessing import TimeoutError as _PoolTimeout
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import WorkerCrashError
from ..obs import NULL_RECORDER, Recorder
from .config import ParallelConfig

# itemsize of every index column (importing repro.core here would be
# circular; the value is pinned by the v2 format, see core/sct_format.py)
ITEMSIZE = 8

__all__ = ["PathShardEngine"]

# per-process worker state, populated by the pool initializer
_WORKER_STATE: Dict[str, object] = {}

# crash-detection cadence: poll the ordered imap at this interval so a
# lost task (a SIGKILLed worker takes its chunk with it and Pool never
# resubmits) cannot hang the sweep; with worker recycling enabled a pid
# leaving the pool is routine, so only a pid change *plus* this long
# with no results counts as a crash
_CRASH_POLL_S = 0.2
_CRASH_GRACE_S = 5.0

# chaos hook: when this env var names a marker file, a worker picking up
# a task atomically claims the file and SIGKILLs itself (see
# _maybe_inject_worker_crash) — how scripts/chaos_load.py and the crash
# tests create real dead workers deterministically
_FAULT_ENV = "REPRO_FAULT_WORKER_KILL"

# every live broadcast block this process owns, released at interpreter
# exit as a second line of defence behind each engine's finalizer — an
# abnormal teardown must never orphan a /dev/shm segment
_LIVE_SHM: Dict[str, shared_memory.SharedMemory] = {}
_ATEXIT_ARMED = False


def _track_shm(shm: shared_memory.SharedMemory) -> None:
    global _ATEXIT_ARMED
    _LIVE_SHM[shm.name] = shm
    if not _ATEXIT_ARMED:
        atexit.register(_release_all_shm)
        _ATEXIT_ARMED = True


def _release_all_shm() -> None:
    for shm in list(_LIVE_SHM.values()):
        _release_shm(shm)


def _share_index(index) -> Tuple[shared_memory.SharedMemory, Tuple]:
    """Copy the index's columns into one shared-memory block.

    Returns ``(shm, meta)``: the owning block (the caller must eventually
    ``close()`` and ``unlink()`` it) and the broadcast metadata — block
    name, scalars, and per-column ``(name, byte offset, entry count)``
    triples.  ``meta`` pickles to a few hundred bytes no matter how large
    the index is; the columns themselves cross the process boundary
    exactly once, through the kernel's shared mapping.
    """
    columns = index._columns()
    layout: List[Tuple[str, int, int]] = []
    offset = 0
    for name in index._COLUMN_ORDER:
        length = len(columns[name])
        layout.append((name, offset, length))
        offset += ITEMSIZE * length
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    buf = shm.buf
    for name, off, length in layout:
        nbytes = ITEMSIZE * length
        buf[off:off + nbytes] = memoryview(columns[name]).cast("B")[:nbytes]
    meta = (shm.name, index.n_vertices, index.threshold, tuple(layout))
    return shm, meta


def _attach_index(meta):
    """Reconstruct a zero-copy :class:`SCTIndex` from broadcast metadata.

    Returns ``(index, shm)``; the caller must keep ``shm`` alive for as
    long as the index is used (its columns are views into the mapping).
    """
    from ..core.sct import SCTIndex

    name, n_vertices, threshold, layout = meta
    try:
        # 3.13+: opt out of resource tracking on attach — the parent owns
        # the block's lifetime
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
        try:
            # 3.10–3.12 register attached blocks with the resource
            # tracker, which would unlink the parent's block when this
            # process exits (bpo-39959); undo the registration
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    view = memoryview(shm.buf)
    columns = {
        col: view[off:off + ITEMSIZE * length].cast("q")
        for col, off, length in layout
    }
    index = SCTIndex._from_columns(
        n_vertices=n_vertices, threshold=threshold, columns=columns, source=shm
    )
    return index, shm


def _init_sweep_worker(meta, record: bool, request_id=None) -> None:
    index, shm = _attach_index(meta)
    _WORKER_STATE["index"] = index
    _WORKER_STATE["shm"] = shm  # keepalive: columns are views into it
    _WORKER_STATE["record"] = record
    _WORKER_STATE["request_id"] = request_id


def _op_paths(index, lo, hi, k, enforce_support, payload):
    return [
        (path.holds, path.pivots)
        for path in index.iter_paths(
            k, enforce_support=enforce_support, _root_slice=(lo, hi)
        )
    ]


def _op_count(index, lo, hi, k, enforce_support, payload):
    n_paths = 0
    n_cliques = 0
    for path in index.iter_paths(
        k, enforce_support=enforce_support, _root_slice=(lo, hi)
    ):
        n_paths += 1
        n_cliques += path.clique_count(k)
    return n_paths, n_cliques


def _op_vertex_counts(index, lo, hi, k, enforce_support, payload):
    from ..core.sct import add_engagement

    counts: Dict[int, int] = defaultdict(int)
    add_engagement(
        (
            (path.holds, path.pivots)
            for path in index.iter_paths(
                k, enforce_support=enforce_support, _root_slice=(lo, hi)
            )
        ),
        k,
        counts,
    )
    return dict(counts)


def _op_refine(index, lo, hi, k, enforce_support, payload):
    """Phase A of one streamed refinement round, over one chunk.

    Runs the serial stream's filter (:func:`~repro.core.sct.scope_rows`)
    with the round's ``(in_scope, live)`` tables — ``(None, None)`` keeps
    every row whole — and returns the survivors in path order, their
    engagement and the filter's tallies.  Weight updates are *not*
    applied here — order matters for byte-parity, so the parent applies
    them over the merged, ordered stream of survivors (phase B).
    """
    from ..core.sct import scope_rows

    in_scope, live = payload
    engagement: Dict[int, int] = defaultdict(int)
    tallies = [0] * 5
    rows = (
        (path.holds, path.pivots)
        for path in index.iter_paths(
            k, enforce_support=enforce_support, _root_slice=(lo, hi)
        )
    )
    surviving = list(scope_rows(
        rows, k, tallies, in_scope, live,
        engagement if in_scope is not None else None,
    ))
    return surviving, dict(engagement), tallies


_SWEEP_OPS = {
    "paths": _op_paths,
    "count": _op_count,
    "vertex_counts": _op_vertex_counts,
    "refine": _op_refine,
}


def _maybe_inject_worker_crash() -> None:
    """Die by SIGKILL if the chaos marker file grants this worker a crash.

    The marker (path in ``REPRO_FAULT_WORKER_KILL``) holds a decimal
    count of crashes to inject.  A worker claims it by atomic rename —
    exactly one process wins a concurrent claim — decrements the count,
    rewrites the marker if crashes remain, and kills itself with the one
    signal Python cannot catch.  No marker, no behaviour change.
    """
    marker = os.environ.get(_FAULT_ENV)
    if not marker:
        return
    claim = f"{marker}.{os.getpid()}"
    try:
        os.rename(marker, claim)
    except OSError:
        return  # no marker left, or another worker won the claim
    try:
        with open(claim, "r", encoding="utf-8") as fh:
            remaining = int(fh.read().strip() or "1")
    except (OSError, ValueError):
        remaining = 1
    try:
        os.remove(claim)
    except OSError:
        pass
    if remaining > 1:
        tmp = claim + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(str(remaining - 1))
            os.replace(tmp, marker)
        except OSError:
            pass
    os.kill(os.getpid(), signal.SIGKILL)


def _run_sweep_task(task):
    _maybe_inject_worker_crash()
    op, lo, hi, k, enforce_support, payload = task
    index = _WORKER_STATE["index"]
    if _WORKER_STATE["record"]:
        from ..obs import MetricsRecorder

        recorder = MetricsRecorder(
            request_id=_WORKER_STATE.get("request_id")
        )
        with recorder.span(
            f"parallel/{op}", observe=f"parallel/chunk_seconds/{op}"
        ):
            result = _SWEEP_OPS[op](index, lo, hi, k, enforce_support, payload)
        return result, recorder.snapshot()
    return _SWEEP_OPS[op](index, lo, hi, k, enforce_support, payload), None


def _quantile_cuts(sizes: Sequence[int], target: int) -> List[Tuple[int, int]]:
    """Split positions ``0..len(sizes)`` into <= ``target`` contiguous
    ranges of roughly equal total size (prefix-sum quantile cuts)."""
    count = len(sizes)
    if count == 0:
        return []
    target = max(1, min(target, count))
    total = sum(sizes)
    boundaries = [0]
    acc = 0
    cut = 1
    for pos, size in enumerate(sizes):
        acc += size
        if cut < target and acc >= total * cut / target and pos + 1 < count:
            boundaries.append(pos + 1)
            cut += 1
    boundaries.append(count)
    return [
        (boundaries[i], boundaries[i + 1])
        for i in range(len(boundaries) - 1)
        if boundaries[i + 1] > boundaries[i]
    ]


def _root_chunks(
    index, target: int, recorder: Recorder = NULL_RECORDER
) -> List[Tuple[int, int]]:
    """Contiguous root-position ranges, weighted by exact subtree size.

    The ``subtree`` column gives every root's node count directly, so
    chunk balance is exact for any index this library produces.  Should a
    (hand-crafted or corrupted) index carry non-positive sizes, chunking
    degrades to uniform position ranges — still correct, only the balance
    suffers — and the ``parallel/chunking-fallback`` counter records that
    it happened.
    """
    subtree = index._subtree
    roots = index._root_ids()
    if not roots:
        return []
    sizes = [subtree[r] for r in roots]
    if min(sizes) < 1:
        if recorder.enabled:
            recorder.counter("parallel/chunking-fallback")
        sizes = [1] * len(roots)
    return _quantile_cuts(sizes, target)


class PathShardEngine:
    """A process pool mapping sweep operations over root-range chunks.

    The pool is created lazily on the first :meth:`map` call and reused
    across sweeps (one engine per algorithm run, many sweeps per engine).
    Creating the pool copies the index columns into a shared-memory
    block exactly once; closing the engine (or dropping the last
    reference) unlinks it.  Close with :meth:`close` or use as a context
    manager.  The engine never polls budgets — callers do, between the
    ordered chunk results.

    Crash recovery: a SIGKILLed/OOM-killed worker silently loses its
    task, which would hang ``imap`` forever.  :meth:`map` therefore
    polls the iterator, watches the pool's worker pids, and on a
    detected death tears the pool down, rebuilds it against the same
    shared-memory block, and re-submits only the unacknowledged chunks
    (results arrive in submission order, so the yielded prefix is safe).
    After ``config.max_crash_retries`` rebuilds it degrades to running
    the remaining chunks in-process — same ops, same order, so results
    stay byte-identical to an uncrashed run either way.
    """

    def __init__(
        self,
        index,
        config: ParallelConfig,
        recorder: Recorder = NULL_RECORDER,
    ):
        self._index = index
        self._config = config
        self._recorder = recorder
        self._pool = None
        self._known_pids: Set[int] = set()
        self._shm = None
        self._meta = None
        self._finalizer = None
        self._chunks = _root_chunks(
            index, config.workers * config.chunks_per_worker, recorder
        )

    @property
    def index(self):
        return self._index

    @property
    def has_chunks(self) -> bool:
        """False only for an empty tree (serial fallback territory)."""
        return bool(self._chunks)

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    def _ensure_shm(self):
        """The broadcast block, created once and reused across pool
        rebuilds (a crash kills workers, not the shared mapping)."""
        if self._shm is None:
            self._shm, self._meta = _share_index(self._index)
            _track_shm(self._shm)
            # safety net: unlink the block even if close() is never called
            self._finalizer = weakref.finalize(
                self, _release_shm, self._shm
            )
            if self._recorder.enabled:
                self._recorder.counter("parallel/broadcast_bytes", self._shm.size)
                self._recorder.gauge("parallel/broadcast_mode", "shared_memory")
        return self._shm

    def _ensure_pool(self):
        if self._pool is None:
            self._ensure_shm()
            ctx = self._config.context()
            self._pool = ctx.Pool(
                processes=self._config.workers,
                initializer=_init_sweep_worker,
                initargs=(
                    self._meta,
                    bool(self._recorder.enabled),
                    getattr(self._recorder, "request_id", None),
                ),
                maxtasksperchild=self._config.max_tasks_per_child,
            )
            self._known_pids = self._worker_pids()
        return self._pool

    def _discard_pool_if_workers_died(self) -> None:
        """Between sweeps, a pool whose worker set changed is suspect.

        A worker SIGKILLed while *idle* can die holding the shared task
        queue's reader lock, deadlocking every surviving and respawned
        worker — no task is ever picked up again, and no further pid
        vanishes for the in-sweep watcher to notice.  Rebuilding is the
        only safe reuse.  With worker recycling pid turnover is routine,
        so the check only applies when ``max_tasks_per_child`` is off
        (the in-sweep grace-period detection still covers that mode).
        """
        if self._pool is None or self._config.max_tasks_per_child is not None:
            return
        if self._worker_pids() != self._known_pids:
            self._teardown_pool()
            if self._recorder.enabled:
                self._recorder.counter("parallel/worker_crashes")
                self._recorder.counter("parallel/pool_rebuilds")

    def _worker_pids(self) -> Set[int]:
        pool = self._pool
        if pool is None:
            return set()
        try:
            return {
                proc.pid for proc in list(pool._pool) if proc.pid is not None
            }
        except Exception:
            return set()

    def _teardown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Pool.terminate() deadlocks on a pool with a SIGKILLed worker:
        # its drain helper blocks acquiring the task queue's reader lock,
        # which a worker killed mid-``recv`` died holding (similarly, one
        # killed mid-result-write died holding the result queue's writer
        # lock, hanging the shutdown sentinel ``put``).  Make the
        # teardown unambiguous instead: stop the maintenance thread from
        # respawning, kill every worker outright, then force-release the
        # two locks only (now dead) workers could hold —
        # ``multiprocessing.Lock.release`` is documented to work from any
        # process — so ``terminate()`` can finish.  Workers are stateless
        # compute; SIGKILL loses nothing.
        try:
            import multiprocessing.pool as _mp_pool

            pool._state = getattr(_mp_pool, "TERMINATE", "TERMINATE")
            procs = list(pool._pool)
            for proc in procs:
                if proc.pid is not None and proc.is_alive():
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except OSError:
                        pass
            for proc in procs:
                proc.join(timeout=2.0)
            for lock in (
                getattr(pool._inqueue, "_rlock", None),
                getattr(pool._outqueue, "_wlock", None),
            ):
                if lock is None:
                    continue
                if lock.acquire(block=False):
                    lock.release()
                else:  # held by a dead worker: un-poison it
                    try:
                        lock.release()
                    except Exception:
                        pass
        except Exception:
            pass
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass

    def _watched_imap(self, pool, tasks) -> Iterator:
        """``pool.imap`` with dead-worker detection.

        A killed worker loses its task silently — Pool never resubmits
        it — so a plain ``next()`` would block forever on the gap in the
        ordered results.  Poll with a timeout instead and treat a worker
        pid leaving the pool (or a broken result pipe) as a crash.  With
        worker recycling (``max_tasks_per_child``) pid turnover is
        routine, so there a crash additionally requires
        ``_CRASH_GRACE_S`` with no progress.
        """
        it = pool.imap(_run_sweep_task, tasks)
        known = self._worker_pids()
        recycling = self._config.max_tasks_per_child is not None
        last_progress = time.monotonic()
        while True:
            try:
                item = it.next(timeout=_CRASH_POLL_S)
            except StopIteration:
                return
            except _PoolTimeout:
                current = self._worker_pids()
                vanished = known - current
                if vanished and (
                    not recycling
                    or time.monotonic() - last_progress > _CRASH_GRACE_S
                ):
                    raise WorkerCrashError(
                        f"pool worker(s) {sorted(vanished)} died mid-sweep"
                    )
                known |= current
                continue
            except (BrokenPipeError, EOFError, ConnectionError, OSError) as exc:
                raise WorkerCrashError(
                    f"pool transport failed mid-sweep: {exc!r}"
                ) from exc
            last_progress = time.monotonic()
            yield item

    def map(
        self,
        op: str,
        k: Optional[int],
        enforce_support: bool = True,
        payload=None,
    ) -> Iterator:
        """Run ``op`` over every chunk; yield results in chunk order.

        Chunk order equals serial path order, so folding the yielded
        results left to right reproduces the serial sweep exactly —
        including across worker crashes: the completed prefix is already
        yielded, only unacknowledged chunks are re-run (pool rebuild) or
        run in-process (serial fallback after ``max_crash_retries``).
        """
        if not self._chunks:
            return
        self._discard_pool_if_workers_died()
        total = len(self._chunks)
        done = 0
        rebuilds_left = self._config.max_crash_retries
        absorbing = self._recorder.enabled and hasattr(self._recorder, "absorb")
        while done < total:
            pool = self._ensure_pool()
            tasks = [
                (op, lo, hi, k, enforce_support, payload)
                for lo, hi in self._chunks[done:]
            ]
            try:
                for result, snapshot in self._watched_imap(pool, tasks):
                    if snapshot is not None and absorbing:
                        self._recorder.absorb(snapshot)
                    done += 1
                    yield result
                return
            except WorkerCrashError:
                self._teardown_pool()
                if self._recorder.enabled:
                    self._recorder.counter("parallel/worker_crashes")
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    if self._recorder.enabled:
                        self._recorder.counter("parallel/pool_rebuilds")
                    continue
                # out of retries: finish the sweep in-process.  Same ops,
                # same chunk order, and the in-parent call path never
                # runs the chaos kill hook, so this always completes.
                if self._recorder.enabled:
                    self._recorder.counter("parallel/serial_fallback")
                for lo, hi in self._chunks[done:]:
                    yield _SWEEP_OPS[op](
                        self._index, lo, hi, k, enforce_support, payload
                    )
                    done += 1
                return

    def count_cliques(self, k: int) -> Tuple[int, int]:
        """``(n_paths, n_cliques)`` across all chunks."""
        n_paths = 0
        n_cliques = 0
        for chunk_paths, chunk_cliques in self.map("count", k):
            n_paths += chunk_paths
            n_cliques += chunk_cliques
        return n_paths, n_cliques

    def vertex_counts(self, k: int) -> List[int]:
        """Per-vertex k-clique engagement, merged across chunks."""
        counts = [0] * self._index.n_vertices
        for chunk in self.map("vertex_counts", k):
            for v, c in chunk.items():
                counts[v] += c
        return counts

    def refine_sweep(self, k: int, in_scope, live) -> Iterator:
        """Phase-A refinement over all chunks (see :func:`_op_refine`)."""
        return self.map("refine", k, payload=(in_scope, live))

    def close(self) -> None:
        """Tear the pool down and release the broadcast block (idempotent)."""
        self._teardown_pool()
        if self._finalizer is not None:
            self._finalizer()  # runs _release_shm exactly once
            self._finalizer = None
            self._shm = None
            self._meta = None

    def __enter__(self) -> "PathShardEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PathShardEngine(workers={self._config.workers}, "
            f"chunks={len(self._chunks)}, index={self._index!r})"
        )


def _release_shm(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink the broadcast block, tolerating repeats."""
    _LIVE_SHM.pop(shm.name, None)
    try:
        shm.close()
    except (BufferError, ValueError):
        pass
    try:
        # on 3.10–3.12 a worker's attach-then-unregister (see
        # _attach_index) also removed *this* process's registration from
        # the shared resource tracker, so the unregister that unlink()
        # performs would make the tracker print a KeyError traceback;
        # re-registering first keeps its bookkeeping consistent
        # (register is idempotent — the tracker's cache is a set)
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
