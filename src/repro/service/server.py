"""The query daemon: a threaded HTTP server around :class:`ReproService`.

Layering::

    repro.service.http            transport: HTTP, ND-JSON bodies
    ReproService                  ops, caches, coalescing, budgets, obs
    repro.densest_subgraph & co   the actual computations

:class:`ReproService` is transport-free — tests drive
:meth:`ReproService.handle_request` directly under a thread pool — and
the HTTP layer contains no logic beyond framing and status mapping.

Composition with the cross-cutting layers:

* **budgets** — each request's ``timeout_s``/``max_iterations`` becomes
  a private :class:`~repro.resilience.RunBudget`; exhaustion degrades to
  the same code-3/code-4 outcomes as the CLI.  :meth:`ReproService.drain`
  cancels every in-flight budget, so active queries return best-so-far
  :class:`~repro.results.PartialResult`\\ s instead of being dropped.
* **observability** — every request gets a correlation id at ingress
  (client-supplied ``request_id`` or a fresh one), echoed in the
  response envelope, stamped on trace events, and carried into pool
  workers.  Each request runs under its own
  :class:`~repro.obs.MetricsRecorder`; completed request snapshots are
  folded into one server-wide recorder (per-endpoint request counters
  and cold/warm latency histograms, cache hit/miss/eviction counters,
  queue-depth gauge), optionally mirrored to a ``--trace`` JSONL sink.
  ``GET /metrics`` renders the server-wide recorder in the Prometheus
  text format; ``--access-log`` appends one JSON line per request.
* **parallelism** — ``--workers`` becomes the
  :class:`~repro.parallel.ParallelConfig` used for cold index builds and
  path sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .. import densest_subgraph
from ..core import SCTIndex
from ..core.profile import density_profile
from ..core.update import compute_update
from ..datasets import load_dataset
from ..errors import (
    BudgetExhausted,
    CircuitOpenError,
    DatasetError,
    InvalidParameterError,
    ReproError,
)
from ..graph import read_edge_list
from ..graph.stats import summarize
from ..obs import MetricsRecorder, render_exposition
from ..options import RunOptions
from ..registry import get_method, methods_supporting
from ..resilience import NULL_BUDGET, RunBudget
from ..resilience.overload import AdmissionController, CircuitBreaker
from ..results import PROFILE_SCHEMA, STATS_SCHEMA, PartialResult
from .cache import LRUCache
from .hashring import key_string
from .http import HTTPFront, serve_until_signalled
from .protocol import (
    CODE_BAD_REQUEST,
    CODE_ERROR,
    CODE_EXHAUSTED,
    CODE_OK,
    CODE_PARTIAL,
    CODE_REJECTED,
    SERVICE_STATS_SCHEMA,
    envelope,
    error_envelope,
    parse_request,
    stamp_topology,
)
from .singleflight import SingleFlight

__all__ = ["ServiceConfig", "ReproService", "serve_forever"]

# endpoint classes for admission control: cold index builds queue
# separately from (usually warm) queries, and index updates get their
# own class so a burst of writes cannot starve reads (or vice versa);
# stats stays ungated so operators can always observe an overloaded
# server
_ADMISSION_CLASS = {
    "query": "query",
    "build": "cold",
    "profile": "cold",
    "update": "update",
}

# Retry-After clamp: never tell a client "0" (thundering retry) and
# never push it out more than two minutes
_RETRY_AFTER_MIN_S = 0.1
_RETRY_AFTER_MAX_S = 120.0
_RETRY_AFTER_DEFAULT_S = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one daemon instance (see ``docs/service.md``)."""

    host: str = "127.0.0.1"
    port: int = 8642
    cache_size: int = 4
    result_cache_size: int = 128
    default_timeout_s: Optional[float] = None
    workers: Optional[int] = None
    trace_path: Optional[str] = None
    # directory for the on-disk index tier (v2 files, loaded via mmap on
    # cold start instead of rebuilding); None disables it
    index_dir: Optional[str] = None
    # structured JSON access log (one object per request); None disables
    access_log_path: Optional[str] = None
    # admission control: at most max_concurrent requests per endpoint
    # class run at once, at most max_queue more wait; beyond that the
    # server rejects with 429 + Retry-After.  None disables the gates.
    max_concurrent: Optional[int] = None
    max_queue: int = 16
    # circuit breaker per index cache key: open after this many
    # consecutive failures, half-open probe after the cooldown
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    # fleet identity: when set (serve --role worker --worker-id w3) every
    # response envelope is stamped served_by=<id> (schema repro/service-v1.1)
    # and /v1/stats reports it, so the router and clients can attribute
    # responses to workers
    worker_id: Optional[str] = None


class ReproService:
    """Transport-free core of the daemon: ops, caches, coalescing, obs."""

    def __init__(self, config: ServiceConfig, sink=None, access_log=None):
        self.config = config
        if config.index_dir:
            os.makedirs(config.index_dir, exist_ok=True)
        self._indices = LRUCache(config.cache_size)
        self._results = LRUCache(config.result_cache_size)
        self._graphs = LRUCache(max(config.cache_size, 2))
        self._flight = SingleFlight()
        self._recorder = MetricsRecorder(sink=sink)
        self._rec_lock = threading.Lock()
        self._access_log = access_log
        self._access_lock = threading.Lock()
        self._draining = threading.Event()
        self._budgets_lock = threading.Lock()
        self._active_budgets: set = set()
        self._req_lock = threading.Lock()
        self._active_requests = 0
        self._admission = (
            AdmissionController(
                config.max_concurrent, config.max_queue,
                classes=tuple(sorted(set(_ADMISSION_CLASS.values()))),
            )
            if config.max_concurrent is not None else None
        )
        # incremental updates (POST /v1/update): the post-update graph is
        # pinned per graph key — the LRU would reload the *pre-update*
        # edge list from disk on a miss — the monotonic graph_version is
        # stamped into every graph-dependent envelope, and updates for
        # one index key serialise on a per-key lock (two concurrent
        # batches must apply one after the other, never coalesce)
        self._version_lock = threading.Lock()
        self._graph_versions: Dict[Any, int] = {}
        self._updated_graphs: Dict[Any, Any] = {}
        self._update_locks: Dict[Any, threading.Lock] = {}
        # every index key ever materialised, by graph key, so an update
        # can find sibling indices (same graph, other threshold/options)
        # that it must drop from memory and disk
        self._seen_index_keys: Dict[Any, set] = {}
        # per-key demand counters (canonical key string -> requests that
        # named it), exposed in /v1/stats as "key_hits" — the signal the
        # fleet router's hot-key promotion reads
        self._key_hits: Dict[str, int] = {}
        # stale-source startup warnings are emitted once per key
        self._stale_warned: set = set()
        self._breakers: Dict[Any, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        # pre-seed the overload counters so every stats payload carries
        # them (repro.obs.validate requires their presence)
        self._recorder.counter("service/rejected", 0)
        self._recorder.counter("parallel/worker_crashes", 0)
        self._started = time.monotonic()

    # -- server-wide observability (the recorder is not thread-safe) ----

    def _count(self, name: str, amount: int = 1) -> None:
        with self._rec_lock:
            self._recorder.counter(name, amount)

    def _gauge(self, name: str, value: Any) -> None:
        with self._rec_lock:
            self._recorder.gauge(name, value)

    def _observe(self, name: str, value: float) -> None:
        with self._rec_lock:
            self._recorder.observe(name, value)

    def _absorb(self, recorder: MetricsRecorder, prefix: str) -> None:
        snapshot = recorder.snapshot()
        with self._rec_lock:
            self._recorder.absorb(snapshot, prefix=prefix)
            # crash-recovery counters also aggregate unprefixed so the
            # overload story reads off one stable name per metric
            for name in (
                "parallel/worker_crashes",
                "parallel/pool_rebuilds",
                "parallel/serial_fallback",
            ):
                count = snapshot.get("counters", {}).get(name)
                if count:
                    self._recorder.counter(name, count)

    def metrics_text(self) -> str:
        """The server-wide recorder as a Prometheus text exposition."""
        with self._rec_lock:
            snapshot = self._recorder.snapshot()
        return render_exposition(snapshot)

    def _log_access(
        self, op: Any, rid: str, code: int, duration_s: float, temp: str
    ) -> None:
        if self._access_log is None:
            return
        entry = {
            "ts": time.time(),
            "op": op if isinstance(op, str) else "",
            "request_id": rid,
            "code": code,
            "duration_s": duration_s,
            "temp": temp,
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._access_lock:
            self._access_log.write(line)
            self._access_log.flush()

    # -- lifecycle ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Stop accepting work and cancel every in-flight budget.

        Active requests observe the cancellation at their next budget
        poll and respond with their best-so-far partial result; requests
        arriving afterwards are refused (HTTP 503).
        """
        self._draining.set()
        with self._budgets_lock:
            budgets = list(self._active_budgets)
        for budget in budgets:
            budget.cancel("cancelled")

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """``(ready, /readyz payload)``: not ready while draining or while
        any endpoint class is full with a full queue."""
        draining = self.draining
        saturated = self._admission is not None and self._admission.saturated
        status = "draining" if draining else "saturated" if saturated else "ok"
        return status == "ok", {
            "status": status,
            "draining": draining,
            "admission_saturated": saturated,
        }

    # -- overload protection --------------------------------------------

    def _latency_quantile(self, op: str, q: float) -> Optional[float]:
        """Quantile of the op's *cold* latency histogram (None if empty)."""
        with self._rec_lock:
            return self._recorder.quantile(f"service/latency/{op}/cold", q)

    def _retry_after(self, op: str) -> float:
        """The Retry-After hint for a rejected ``op`` request.

        p95 of the op's cold latency histogram — roughly "one slow
        request from now a slot should be free" — clamped to a sane
        range, with a 1s default before any latency has been observed.
        """
        p95 = self._latency_quantile(op, 0.95)
        if p95 is None:
            return _RETRY_AFTER_DEFAULT_S
        return round(
            min(_RETRY_AFTER_MAX_S, max(_RETRY_AFTER_MIN_S, p95)), 3
        )

    def _reject(
        self, op: str, code: int, reason: str, message: str
    ) -> Dict[str, Any]:
        retry_after = self._retry_after(op)
        self._count("service/rejected")
        self._count(f"service/rejected/{reason}")
        self._observe("service/retry_after_s", retry_after)
        return error_envelope(
            op, code, message, rejected=True, retry_after_s=retry_after
        )

    def _admit(self, op: str, obj: Dict[str, Any]):
        """Pass the request through its class's admission gate.

        Returns ``(rejection_envelope, gate)`` — exactly one is not
        ``None``; an admitted request must ``gate.release()`` when done.
        Before queueing, doomed work is rejected outright: if the
        request's own ``timeout_s`` cannot cover the estimated queue
        wait (queue depth × observed p50 cold latency), admitting it
        would only burn a slot on a guaranteed code-3 response.
        """
        gate = self._admission.gate(_ADMISSION_CLASS[op])
        timeout_s = obj.get("timeout_s", self.config.default_timeout_s)
        if timeout_s is not None and gate.active >= gate.max_concurrent:
            p50 = self._latency_quantile(op, 0.50)
            if p50 is not None:
                est_wait = p50 * math.ceil(
                    (gate.waiting + 1) / gate.max_concurrent
                )
                if timeout_s < est_wait:
                    return self._reject(
                        op, CODE_EXHAUSTED, "doomed",
                        f"timeout_s={timeout_s:g} cannot be met: estimated "
                        f"queue wait {est_wait:.3f}s at current depth "
                        f"(observed p50 {p50:.3f}s)",
                    ), None
        decision = gate.try_acquire(wait_timeout_s=timeout_s)
        if decision.admitted:
            if decision.waited_s:
                self._observe("service/admission_wait_s", decision.waited_s)
            return None, gate
        if decision.reason == "queue_full":
            return self._reject(
                op, CODE_REJECTED, "queue_full",
                f"server overloaded: {gate.max_concurrent} running and "
                f"{decision.queue_depth} queued for class "
                f"{_ADMISSION_CLASS[op]!r}",
            ), None
        return self._reject(
            op, CODE_EXHAUSTED, "wait_timeout",
            f"timed out after {decision.waited_s:.3f}s in the admission "
            "queue before a slot freed",
        ), None

    def _breaker_for(self, index_key) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(index_key)
            if breaker is None:
                breaker = CircuitBreaker(
                    threshold=self.config.breaker_threshold,
                    cooldown_s=self.config.breaker_cooldown_s,
                )
                self._breakers[index_key] = breaker
            return breaker

    def _note_breaker(self, index_key, breaker: CircuitBreaker) -> None:
        """Mirror a breaker's state into the metrics (gauge per key)."""
        digest = hashlib.sha256(
            json.dumps(index_key, sort_keys=True, default=list).encode()
        ).hexdigest()[:12]
        self._gauge(f"breaker/state/{digest}", breaker.state)

    def _breaker_snapshot(self) -> Dict[str, Any]:
        with self._breaker_lock:
            items = list(self._breakers.items())
        return {
            "/".join(str(part) for part in key[0]) + f"@{key[1]}":
                breaker.snapshot()
            for key, breaker in items
        }

    # -- request plumbing -----------------------------------------------

    def _budget_for(self, obj: Dict[str, Any]):
        timeout_s = obj.get("timeout_s", self.config.default_timeout_s)
        max_iterations = obj.get("max_iterations")
        if timeout_s is None and max_iterations is None:
            return NULL_BUDGET
        return RunBudget(
            wall_seconds=timeout_s, max_iterations=max_iterations
        )

    def _track_budget(self, budget):
        if budget is NULL_BUDGET:
            return
        with self._budgets_lock:
            self._active_budgets.add(budget)

    def _untrack_budget(self, budget) -> None:
        if budget is NULL_BUDGET:
            return
        with self._budgets_lock:
            self._active_budgets.discard(budget)

    def _options_for(self, recorder: MetricsRecorder, budget) -> RunOptions:
        return RunOptions(
            recorder=recorder, budget=budget, parallel=self.config.workers
        )

    def _graph_for(self, obj: Dict[str, Any]) -> Tuple[Tuple[str, str], Any]:
        dataset = obj.get("dataset")
        path = obj.get("path")
        if (dataset is None) == (path is None):
            raise InvalidParameterError(
                "exactly one of 'dataset' or 'path' is required"
            )
        key = ("dataset", dataset) if dataset else ("path", path)
        with self._version_lock:
            pinned = self._updated_graphs.get(key)
        if pinned is not None:
            return key, pinned
        graph = self._graphs.get(key)
        if graph is not None:
            return key, graph

        def load():
            if dataset is not None:
                return load_dataset(dataset)
            return read_edge_list(path)

        graph, leader = self._flight.do(("graph", key), load)
        if leader:
            self._graphs.put(key, graph)
        return key, graph

    @staticmethod
    def _index_key(graph_key, obj: Dict[str, Any]):
        threshold = int(obj.get("threshold", 0))
        build_options = obj.get("build_options") or {}
        if not isinstance(build_options, dict):
            raise InvalidParameterError(
                "build_options must be a JSON object when given"
            )
        fingerprint = json.dumps(build_options, sort_keys=True)
        return (graph_key, threshold, fingerprint)

    def _graph_version(self, graph_key) -> int:
        """The graph's monotonic version (0 until its first update)."""
        with self._version_lock:
            return self._graph_versions.get(graph_key, 0)

    def _note_key_demand(self, index_key) -> None:
        """Count one request against ``index_key``'s demand counter.

        Counted per *request that named the key* — result-cache hits
        included — because that is the signal a router needs for warm-
        replica promotion: what clients are asking for, not what the
        index cache happened to miss.
        """
        canonical = key_string(index_key)
        with self._version_lock:
            self._key_hits[canonical] = self._key_hits.get(canonical, 0) + 1

    def _update_lock(self, index_key) -> threading.Lock:
        with self._version_lock:
            lock = self._update_locks.get(index_key)
            if lock is None:
                lock = threading.Lock()
                self._update_locks[index_key] = lock
            return lock

    def _index_disk_path(self, index_key) -> Optional[str]:
        """Where ``index_key``'s v2 index file lives on disk (or None)."""
        if not self.config.index_dir:
            return None
        digest = hashlib.sha256(
            json.dumps(index_key, sort_keys=True, default=list).encode("utf-8")
        ).hexdigest()
        return os.path.join(self.config.index_dir, f"{digest}.sct2")

    def _index_meta_path(self, disk_path: str) -> str:
        """Sidecar JSON next to a ``.sct2`` recording its graph_version."""
        return disk_path + ".meta.json"

    def _store_index_meta(self, disk_path: str, graph_version: int) -> None:
        """Persist the patched index's graph_version next to the file.

        Best-effort (the index itself is the asset); written via the
        same tmp + rename dance so a crash never leaves a torn sidecar.
        """
        meta_path = self._index_meta_path(disk_path)
        tmp = meta_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"graph_version": graph_version}, handle)
            os.replace(tmp, meta_path)
        except OSError:
            self._count("service/index_cache/disk_store_error")

    def _check_stale_source(self, index_key, disk_path: str) -> None:
        """Warn when a patched on-disk index meets a freshly loaded source.

        The PR 9 restart caveat at fleet scale: a worker cold-starting
        with ``--index-dir`` mmaps back an index that incremental
        updates patched (persisted ``graph_version`` > 0), while the
        graph itself reloads from the *original* edge-list source — the
        two have diverged, and at fleet scale this happens per worker,
        silently.  Emit a structured warning (op=``startup``) and bump
        ``service/index_cache/stale_source`` so operators can see the
        divergence on every worker's ``/metrics``; warn once per key.
        """
        if index_key in self._stale_warned:
            return
        meta_path = self._index_meta_path(disk_path)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return  # no sidecar: the file was never patched
        persisted = meta.get("graph_version")
        if not isinstance(persisted, int) or persisted <= 0:
            return
        graph_key = index_key[0]
        if self._graph_version(graph_key) > 0:
            return  # this process applied updates itself; no divergence
        self._stale_warned.add(index_key)
        self._count("service/index_cache/stale_source")
        warning = {
            "op": "startup",
            "warning": "stale_source",
            "graph": list(graph_key),
            "threshold": index_key[1],
            "persisted_graph_version": persisted,
            "detail": (
                "patched .sct2 loaded from disk but the edge-list source "
                "is being reloaded from its original file; the index and "
                "the graph have diverged (see docs/service.md, restart "
                "caveat)"
            ),
        }
        if self.config.worker_id:
            warning["worker_id"] = self.config.worker_id
        print(json.dumps(warning, sort_keys=True), file=sys.stderr, flush=True)
        with self._rec_lock:
            self._recorder.event("startup/stale_source", **warning)

    def _quarantine(self, disk_path: str, exc: BaseException) -> None:
        """Move a corrupt ``.sct2`` file into ``index_dir/quarantine/``.

        The next hit rebuilds instead of re-erroring, and the bad bytes
        stay on disk for a post-mortem.  A file that cannot be moved is
        left in place (the load path already tolerates it).
        """
        qdir = os.path.join(self.config.index_dir, "quarantine")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(
                disk_path, os.path.join(qdir, os.path.basename(disk_path))
            )
        except OSError:
            self._count("service/index_cache/quarantine_error")
            return
        self._count("service/index_cache/quarantined")

    def _get_index(
        self, index_key, graph, recorder: MetricsRecorder, budget
    ) -> Tuple[SCTIndex, bool]:
        """The cached index for ``index_key``, building it on a miss.

        Returns ``(index, was_cached)``.  Concurrent misses for the same
        key coalesce into one build; the first requester's budget governs
        it (followers inherit the shared outcome, including a
        :class:`~repro.errors.BudgetExhausted`).

        With ``index_dir`` configured there is a disk tier between the
        in-memory LRU and a rebuild: a cold start finds the key's v2
        file and memory-maps it (column views, no parsing — load time is
        independent of index size), and every fresh build is persisted
        for the next process.  A corrupt or unreadable file is moved to
        ``index_dir/quarantine/`` and rebuilt — one bad byte must not
        error on every hit, and the evidence stays inspectable; a failed
        store is logged and ignored (the index itself is fine).

        A per-key :class:`~repro.resilience.CircuitBreaker` wraps the
        whole load-or-build: after ``breaker_threshold`` consecutive
        failures the key fast-fails with
        :class:`~repro.errors.CircuitOpenError` (HTTP 503 +
        Retry-After) until a half-open probe succeeds.  Budget
        exhaustion and bad-request errors do not count as failures.
        """
        with self._version_lock:
            self._seen_index_keys.setdefault(index_key[0], set()).add(
                index_key
            )
        index = self._indices.get(index_key)
        if index is not None:
            self._count("service/index_cache/hit")
            return index, True
        self._count("service/index_cache/miss")
        breaker = self._breaker_for(index_key)
        if not breaker.allow():
            self._count("service/breaker/fast_fail")
            raise CircuitOpenError(
                "circuit open for this index key after repeated failures "
                f"(last: {breaker.last_error!r})",
                retry_after_s=round(breaker.retry_after_s, 3),
                last_error=breaker.last_error,
            )
        threshold = index_key[1]
        disk_path = self._index_disk_path(index_key)

        def load_or_build_inner():
            if disk_path is not None and os.path.exists(disk_path):
                try:
                    index = SCTIndex.load(disk_path)
                except (ReproError, OSError) as exc:
                    self._count("service/index_cache/disk_error")
                    self._quarantine(disk_path, exc)
                    index = None  # fall through to a rebuild
                else:
                    self._count("service/index_cache/disk_hit")
                    self._check_stale_source(index_key, disk_path)
                    return index
            self._count("service/index_builds")
            index = SCTIndex.build(
                graph,
                threshold=threshold,
                options=self._options_for(recorder, budget),
            )
            if disk_path is not None:
                try:
                    index.save(disk_path)
                except OSError:
                    self._count("service/index_cache/disk_store_error")
                else:
                    self._count("service/index_cache/disk_store")
            return index

        def load_or_build():
            # breaker bookkeeping runs in the flight leader only, so N
            # coalesced requests record exactly one outcome
            try:
                index = load_or_build_inner()
            except (BudgetExhausted, InvalidParameterError, DatasetError):
                # not the infrastructure's fault: neither a success nor a
                # failure, but a half-open probe slot must be returned
                breaker.release_probe()
                raise
            except Exception as exc:
                breaker.record_failure(exc)
                self._note_breaker(index_key, breaker)
                raise
            breaker.record_success()
            return index

        index, leader = self._flight.do(("index", index_key), load_or_build)
        if leader:
            evicted = self._indices.put(index_key, index)
            if evicted:
                self._count("service/index_cache/evictions", len(evicted))
        else:
            self._count("service/coalesced_builds")
        return index, False

    # -- ops ------------------------------------------------------------

    def _op_query(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        if "k" not in obj:
            raise InvalidParameterError("query requires 'k'")
        k = int(obj["k"])
        spec = get_method(obj.get("method", "sctl*"))
        iterations = int(obj.get("iterations", 10))
        sample_size = obj.get("sample_size")
        if sample_size is not None:
            sample_size = int(sample_size)
        seed = int(obj.get("seed", 0))
        include_stats = bool(obj.get("include_stats", False))
        graph_key, graph = self._graph_for(obj)
        index_key = self._index_key(graph_key, obj)
        self._note_key_demand(index_key)
        result_key = (
            "query", index_key, k, spec.name, iterations, sample_size, seed
        )

        cached = self._results.get(result_key)
        if cached is not None:
            result, computed_at = cached
            self._count("service/result_cache/hit")
            obj["_temp"] = "warm"
            return self._query_envelope(
                result, include_stats, cached=True, coalesced=False,
                query_time_s=time.perf_counter() - t0,
                graph_version=computed_at,
            )
        self._count("service/result_cache/miss")
        version = self._graph_version(graph_key)

        budget = self._budget_for(obj)
        self._track_budget(budget)
        try:
            def compute():
                self._count("service/computations")
                recorder = MetricsRecorder(
                    request_id=obj.get("_request_id")
                )
                try:
                    try:
                        index, _ = self._get_index(
                            index_key, graph, recorder, budget
                        )
                    except BudgetExhausted as exc:
                        return PartialResult(
                            vertices=[], clique_count=0, k=k,
                            algorithm=spec.name, valid=False,
                            reason=exc.reason,
                            stage=exc.stage or "index/build",
                        )
                    try:
                        return densest_subgraph(
                            graph, k, method=spec.name,
                            iterations=iterations, index=index,
                            sample_size=sample_size, seed=seed,
                            options=self._options_for(recorder, budget),
                        )
                    except (InvalidParameterError, DatasetError):
                        raise  # caller's fault; breaker unaffected
                    except Exception as exc:
                        # a query-phase failure on a good index counts
                        # toward the same per-key breaker as build failures
                        breaker = self._breaker_for(index_key)
                        breaker.record_failure(exc)
                        self._note_breaker(index_key, breaker)
                        raise
                finally:
                    self._absorb(recorder, prefix="req/query")

            result, leader = self._flight.do(result_key, compute)
        finally:
            self._untrack_budget(budget)
        # cold means this request led a fresh computation; coalesced
        # followers rode a leader's work, so their latency is warm-ish
        obj["_temp"] = "cold" if leader else "warm"
        if not leader:
            self._count("service/coalesced")
        elif not result.is_partial:
            # partials are never cached: a later client with a larger
            # budget deserves a fresh, complete computation.  An update
            # that committed while we computed already swept the result
            # cache, so a result stamped with a superseded version must
            # not slip in behind it.
            if self._graph_version(graph_key) == version:
                self._results.put(result_key, (result, version))
        return self._query_envelope(
            result, include_stats, cached=False, coalesced=not leader,
            query_time_s=time.perf_counter() - t0,
            graph_version=version,
        )

    @staticmethod
    def _query_envelope(
        result, include_stats: bool, cached: bool, coalesced: bool,
        query_time_s: float, graph_version: int = 0,
    ) -> Dict[str, Any]:
        if result.is_partial:
            code = CODE_PARTIAL if result.valid else CODE_EXHAUSTED
        else:
            code = CODE_OK
        return envelope(
            "query", code,
            result=result.to_dict(include_stats=include_stats),
            cached=cached, coalesced=coalesced,
            query_time_s=query_time_s,
            graph_version=graph_version,
        )

    def _op_update(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Apply an edge batch to the graph and its index, incrementally.

        The request names the graph and index like ``query`` does, plus
        ``inserts``/``deletes`` edge lists.  On success the new index is
        byte-identical to a from-scratch rebuild over the updated edge
        set, but only the dirty root subtrees were recomputed; commit
        swaps the caches, patches the disk tier atomically, bumps the
        graph's version, and invalidates exactly the result-cache
        entries whose subgraph intersects the dirty region.  A budget
        that expires mid-update is a *valid partial* (code 4): nothing
        was applied, the previous index keeps serving unchanged.
        """
        t0 = time.perf_counter()
        inserts = obj.get("inserts") or []
        deletes = obj.get("deletes") or []
        if not isinstance(inserts, list) or not isinstance(deletes, list):
            raise InvalidParameterError(
                "'inserts' and 'deletes' must be lists of [u, v] pairs"
            )
        if not inserts and not deletes:
            raise InvalidParameterError(
                "update requires at least one edge in 'inserts' or "
                "'deletes'"
            )
        method = obj.get("method")
        if method is not None:
            spec = get_method(method)
            if not spec.supports_update:
                raise InvalidParameterError(
                    f"method {spec.name!r} does not support incremental "
                    "updates; methods that do: "
                    + ", ".join(methods_supporting("update"))
                )
        graph_key, _ = self._graph_for(obj)
        index_key = self._index_key(graph_key, obj)
        obj["_temp"] = "cold"
        budget = self._budget_for(obj)
        self._track_budget(budget)
        recorder = MetricsRecorder(request_id=obj.get("_request_id"))
        try:
            with self._update_lock(index_key):
                # re-resolve inside the lock: a batch that just committed
                # swapped the pinned graph this one must build on
                _, graph = self._graph_for(obj)
                index, _ = self._get_index(index_key, graph, recorder, budget)
                try:
                    region = compute_update(
                        index, graph, inserts, deletes,
                        options=RunOptions(recorder=recorder, budget=budget),
                    )
                except BudgetExhausted as exc:
                    self._count("service/index_updates/exhausted")
                    return envelope(
                        "update", CODE_PARTIAL,
                        applied=False,
                        reason=exc.reason,
                        graph_version=self._graph_version(graph_key),
                        update_time_s=round(time.perf_counter() - t0, 6),
                    )
                version, invalidated, retained, siblings = (
                    self._commit_update(graph_key, index_key, region)
                )
        finally:
            self._untrack_budget(budget)
            self._absorb(recorder, prefix="req/update")
        self._count("service/index_updates")
        return envelope(
            "update", CODE_OK,
            applied=True,
            update=region.summary(),
            graph_version=version,
            invalidated_results=invalidated,
            retained_results=retained,
            evicted_sibling_indices=siblings,
            update_time_s=round(time.perf_counter() - t0, 6),
        )

    def _commit_update(self, graph_key, index_key, region):
        """Make an applied update visible everywhere; returns the stamps.

        Order matters: the pinned graph and version move together under
        the version lock, the index cache entry is swapped before any
        result is invalidated, and the disk tier is patched last through
        the atomic writer — a crash at any point leaves the previous
        ``.sct2`` file intact and readable.
        """
        with self._version_lock:
            version = self._graph_versions.get(graph_key, 0) + 1
            self._graph_versions[graph_key] = version
            self._updated_graphs[graph_key] = region.graph
            siblings = [
                key for key in self._seen_index_keys.get(graph_key, ())
                if key != index_key
            ]
        self._graphs.put(graph_key, region.graph)
        self._indices.put(index_key, region.index)
        # fine-grained invalidation: only cached results whose subgraph
        # intersects the dirty region can have changed; the rest keep
        # serving, stamped with the version they were computed at
        invalidated = retained = 0
        for key, entry in self._results.items():
            if not (isinstance(key, tuple) and len(key) > 1):
                continue
            if key[1][0] != graph_key:
                continue
            result, _computed_at = entry
            if region.intersects(result.vertices):
                if self._results.pop(key) is not None:
                    invalidated += 1
            else:
                retained += 1
        self._count("service/result_cache/invalidated", invalidated)
        self._count("service/result_cache/retained", retained)
        # sibling indices (same graph, other threshold/build_options)
        # were built against the pre-update edge set: drop them from
        # memory and disk so their next touch rebuilds fresh
        evicted_siblings = 0
        for sibling in siblings:
            if self._indices.pop(sibling) is not None:
                evicted_siblings += 1
            sibling_path = self._index_disk_path(sibling)
            if sibling_path is not None:
                for stale in (
                    sibling_path, self._index_meta_path(sibling_path)
                ):
                    try:
                        os.remove(stale)
                    except OSError:
                        pass
        if evicted_siblings:
            self._count(
                "service/index_cache/sibling_evictions", evicted_siblings
            )
        disk_path = self._index_disk_path(index_key)
        if disk_path is not None:
            try:
                region.index.save(disk_path)
            except OSError:
                self._count("service/index_cache/disk_store_error")
            else:
                self._count("service/index_cache/disk_store")
                # record the patched file's graph_version so a cold
                # restart can detect (and warn about) index-vs-source
                # divergence instead of serving it silently
                self._store_index_meta(disk_path, version)
        return version, invalidated, retained, evicted_siblings

    def _op_build(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        graph_key, graph = self._graph_for(obj)
        index_key = self._index_key(graph_key, obj)
        self._note_key_demand(index_key)
        budget = self._budget_for(obj)
        self._track_budget(budget)
        recorder = MetricsRecorder(request_id=obj.get("_request_id"))
        try:
            index, was_cached = self._get_index(
                index_key, graph, recorder, budget
            )
        finally:
            self._untrack_budget(budget)
        obj["_temp"] = "warm" if was_cached else "cold"
        if not was_cached:
            self._absorb(recorder, prefix="req/build")
        return envelope(
            "build", CODE_OK,
            index={
                "n_vertices": index.n_vertices,
                "max_clique_size": index.max_clique_size,
                "tree_nodes": index.n_tree_nodes,
                "threshold": index_key[1],
                "cached": was_cached,
            },
            graph_version=self._graph_version(graph_key),
            build_time_s=time.perf_counter() - t0,
        )

    def _op_profile(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        iterations = int(obj.get("iterations", 10))
        graph_key, graph = self._graph_for(obj)
        index_key = self._index_key(graph_key, obj)
        self._note_key_demand(index_key)
        budget = self._budget_for(obj)
        self._track_budget(budget)
        recorder = MetricsRecorder(request_id=obj.get("_request_id"))
        try:
            index, was_cached = self._get_index(
                index_key, graph, recorder, budget
            )
            profile = density_profile(
                index, iterations=iterations,
                options=self._options_for(recorder, budget),
            )
        finally:
            self._untrack_budget(budget)
        obj["_temp"] = "warm" if was_cached else "cold"
        self._absorb(recorder, prefix="req/profile")
        return envelope(
            "profile", CODE_OK,
            profile={
                "schema": PROFILE_SCHEMA,
                "k_max": index.max_clique_size,
                "densest_k": profile.densest_k(),
                "rows": [
                    {
                        "k": k,
                        "size": size,
                        "clique_count": count,
                        "density": density,
                    }
                    for k, size, count, density in profile.as_rows()
                ],
            },
            profile_time_s=time.perf_counter() - t0,
        )

    def _op_stats(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        with self._rec_lock:
            counters = dict(sorted(self._recorder.counters.items()))
            gauges = {
                name: value
                for name, value in sorted(self._recorder.gauges.items())
            }
            histograms = {
                name: hist.summary()
                for name, hist in sorted(self._recorder.histograms.items())
            }
        payload: Dict[str, Any] = {
            "schema": SERVICE_STATS_SCHEMA,
            "uptime_s": time.monotonic() - self._started,
            "draining": self.draining,
            "queue_depth": self._active_requests,
            "in_flight": self._flight.in_flight(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "index_cache": self._indices.stats(),
            "result_cache": self._results.stats(),
            "index_keys": [
                {"graph": list(graph_key), "threshold": threshold}
                for graph_key, threshold, _ in self._indices.keys()
            ],
        }
        with self._version_lock:
            payload["graph_versions"] = {
                "/".join(str(part) for part in graph_key): version
                for graph_key, version in sorted(self._graph_versions.items())
            }
            payload["key_hits"] = dict(sorted(self._key_hits.items()))
        if self.config.worker_id is not None:
            payload["worker_id"] = self.config.worker_id
        if self._admission is not None:
            payload["admission"] = self._admission.snapshot()
        breakers = self._breaker_snapshot()
        if breakers:
            payload["breakers"] = breakers
        if obj.get("dataset") is not None or obj.get("path") is not None:
            _, graph = self._graph_for(obj)
            graph_stats = {"schema": STATS_SCHEMA}
            graph_stats.update(summarize(graph).to_dict())
            payload["graph"] = graph_stats
        return envelope("stats", CODE_OK, stats=payload)

    # -- dispatch -------------------------------------------------------

    _OPS = {
        "query": _op_query,
        "build": _op_build,
        "profile": _op_profile,
        "stats": _op_stats,
        "update": _op_update,
    }
    # served over HTTP as POST /v1/<op>, and GET /v1/<op> for GET_OPS
    OPS = tuple(_OPS)
    GET_OPS = ("stats",)

    def handle_request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """One parsed request object in, one response envelope out.

        Never raises: every failure mode maps to an error envelope whose
        ``code`` follows the CLI exit-code convention.  Every response —
        success or error — carries a ``request_id``: the client's own
        (when it sent one) or a fresh id generated here at ingress; the
        same id is stamped on the request's trace events and pool-worker
        snapshots, and on its access-log entry.
        """
        op = obj.get("op")
        rid = obj.get("request_id")
        if not isinstance(rid, str) or not rid:
            rid = uuid.uuid4().hex[:16]
        obj["_request_id"] = rid
        started = time.perf_counter()
        response = self._dispatch(op, obj)
        duration_s = time.perf_counter() - started
        response["request_id"] = rid
        if self.config.worker_id is not None:
            stamp_topology(response, served_by=self.config.worker_id)
        temp = obj.get("_temp", "warm")
        if op in self._OPS and response.get("error") is None:
            self._observe(f"service/latency/{op}/{temp}", duration_s)
        self._log_access(op, rid, response.get("code", 0), duration_s, temp)
        return response

    def _dispatch(self, op, obj: Dict[str, Any]) -> Dict[str, Any]:
        if op not in self._OPS:
            return error_envelope(
                op, CODE_BAD_REQUEST,
                f"unknown op {op!r}; expected one of: "
                + ", ".join(sorted(self._OPS)),
            )
        if self.draining:
            return error_envelope(op, CODE_ERROR, "server is draining")
        self._count(f"service/requests/{op}")
        gate = None
        if self._admission is not None and op in _ADMISSION_CLASS:
            rejection, gate = self._admit(op, obj)
            if rejection is not None:
                obj["_temp"] = "rejected"
                return rejection
        with self._req_lock:
            self._active_requests += 1
            depth = self._active_requests
        self._gauge("service/queue_depth", depth)
        try:
            return self._OPS[op](self, obj)
        except BudgetExhausted as exc:
            return error_envelope(op, CODE_EXHAUSTED, str(exc))
        except CircuitOpenError as exc:
            return error_envelope(
                op, CODE_ERROR, str(exc),
                breaker_open=True, retry_after_s=exc.retry_after_s,
            )
        except (InvalidParameterError, DatasetError) as exc:
            return error_envelope(op, CODE_BAD_REQUEST, str(exc))
        except FileNotFoundError as exc:
            return error_envelope(op, CODE_BAD_REQUEST, str(exc))
        except ReproError as exc:
            return error_envelope(op, CODE_ERROR, str(exc))
        except Exception as exc:  # the daemon must survive anything
            return error_envelope(op, CODE_ERROR, f"internal error: {exc!r}")
        finally:
            if gate is not None:
                gate.release()
            with self._req_lock:
                self._active_requests -= 1
                depth = self._active_requests
            self._gauge("service/queue_depth", depth)

    def handle_line(self, line: str) -> Dict[str, Any]:
        """One raw request line in, one response envelope out."""
        try:
            obj = parse_request(line)
        except InvalidParameterError as exc:
            return error_envelope(None, CODE_BAD_REQUEST, str(exc))
        return self.handle_request(obj)

    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``stats`` payload (convenience for tests and tooling)."""
        return self._op_stats({})["stats"]


def make_server(
    config: ServiceConfig, sink=None, access_log=None
) -> Tuple[HTTPFront, ReproService]:
    """Bind a server for ``config`` without entering its accept loop.

    Exposed for tests: bind to port 0, read the real port off
    ``server.server_address``, run ``serve_forever`` in a thread.
    """
    service = ReproService(config, sink=sink, access_log=access_log)
    server = HTTPFront((config.host, config.port), service, "repro-service")
    return server, service


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8642,
    cache_size: int = 4,
    result_cache_size: int = 128,
    default_timeout_s: Optional[float] = None,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
    index_dir: Optional[str] = None,
    access_log_path: Optional[str] = None,
    max_concurrent: Optional[int] = None,
    max_queue: int = 16,
    worker_id: Optional[str] = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code.

    The first signal drains gracefully: in-flight budgets are cancelled
    (their requests respond with best-so-far partials), new requests get
    503, and the accept loop stops once every handler thread finishes.
    """
    config = ServiceConfig(
        host=host, port=port, cache_size=cache_size,
        result_cache_size=result_cache_size,
        default_timeout_s=default_timeout_s, workers=workers,
        trace_path=trace_path, index_dir=index_dir,
        access_log_path=access_log_path,
        max_concurrent=max_concurrent, max_queue=max_queue,
        worker_id=worker_id,
    )
    sink = open(trace_path, "w", encoding="utf-8") if trace_path else None
    access_log = (
        open(access_log_path, "a", encoding="utf-8")
        if access_log_path else None
    )
    try:
        server, _ = make_server(config, sink=sink, access_log=access_log)
        serve_until_signalled(
            server,
            f"repro service listening on "
            f"http://{config.host}:{server.server_address[1]}",
            "draining, cancelling in-flight budgets",
        )
    finally:
        if sink is not None:
            sink.close()
        if access_log is not None:
            access_log.close()
    print("repro service drained", flush=True)
    return 0
