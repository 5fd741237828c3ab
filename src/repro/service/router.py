"""Fleet front for the query daemon: consistent-hash routing over workers.

One daemon process cannot serve the millions-of-users north star:
every SCT*-Index is resident in a single process and cold builds
serialize behind the GIL.  The fleet splits the roles:

* N **workers** — unmodified :class:`~repro.service.ReproService`
  processes on loopback ports (spawned by :class:`FleetManager`, or
  supplied as a static table), each started with ``--worker-id`` so its
  envelopes carry ``served_by``;
* one **router** — :class:`RouterService`, which places every canonical
  index cache key ``(graph source, threshold, build_options)`` on the
  :class:`~repro.service.hashring.HashRing` and forwards each request to
  the owner, so *each index is resident exactly once* across the fleet.

On top of plain placement the router adds:

* **warm-replica promotion** — a poll thread reads each worker's
  ``key_hits`` stats, feeds the merged totals into
  :class:`~repro.resilience.overload.HotKeyTracker`, and replicates hot
  keys to their next preference node with a ``build`` request; reads
  then round-robin across owner + replicas.
* **worker death handling** — forwards run behind a per-worker
  :class:`~repro.resilience.overload.CircuitBreaker`; a connection-level
  failure on a dead process removes the worker from the ring (epoch
  bump) and the request fails over to the next candidate, so a
  mid-flight SIGKILL costs retries, not answers.
* **fleet-wide update semantics** — ``/v1/update`` goes to the key's
  owner first; a committed batch is appended to a per-graph update log
  and replayed to every worker serving a replica of that graph, and to
  any worker that later becomes an owner cold (ring reassignment), so
  ``graph_version`` stays monotonic per graph across the whole fleet.
  The log keeps a graph's first ``_UPDATE_LOG_CAP`` batches; a worker
  that lacks a later one gets an error envelope for that graph's keys,
  never a stale answer.
* a **versioned topology surface** — ``GET /v1/topology`` returns the
  ring epoch, worker table and replica map (``repro/topology-v1``);
  every response that crosses the router is stamped ``ring_epoch`` (and
  therefore tagged ``repro/service-v1.1``), which is how
  topology-aware clients notice membership changes.

The router holds no graph data and builds no indices — it is a thin
placement layer, so cold builds of distinct keys run in parallel on
distinct workers.  perfbench's ``fleet-serve`` workload measures a
router and two workers under load, and ``tests/test_fleet.py`` SIGKILLs
a worker under load from several client threads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import uuid
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError
from ..obs import MetricsRecorder, render_exposition
from ..resilience.overload import CircuitBreaker, HotKeyTracker
from .hashring import (
    DEFAULT_VNODES,
    HashRing,
    graph_string,
    key_string,
    parse_key_string,
    request_key,
)
from .http import HTTPFront, exchange, first_envelope, serve_until_signalled
from .protocol import (
    CODE_BAD_REQUEST,
    CODE_ERROR,
    CODE_OK,
    ROUTER_STATS_SCHEMA,
    TOPOLOGY_SCHEMA,
    envelope,
    error_envelope,
    parse_request,
    stamp_topology,
)

__all__ = [
    "RouterConfig",
    "FleetManager",
    "RouterService",
    "make_router",
    "serve_fleet",
]

# the worker announce line serve_forever prints once its socket is bound
_ANNOUNCE_PREFIX = "repro service listening on "

# ops that carry a graph source and therefore a ring placement
_PLACED_OPS = ("query", "build", "profile", "update")

# hard cap on replayable updates retained per graph; a graph past the
# cap stops being replicated, and a worker that lacks a batch past the
# cap is refused (correctness first: a worker that cannot be converged
# is not served)
_UPDATE_LOG_CAP = 512

# at most this many keys hold warm replicas at once
_MAX_REPLICATED_KEYS = 8

# how long a dropped connection waits for a managed worker's process to
# exit: a killed process drops its connections before it can be reaped
_EXIT_GRACE_S = 1.0


class _Unconverged(Exception):
    """A worker lacks committed update batches that the capped log no
    longer holds, so it cannot be brought to the graph's version."""

    def __init__(
        self, worker_id: str, graph: str, applied: int, committed: int
    ):
        super().__init__(
            f"worker {worker_id} has applied {applied} of the {committed} "
            f"committed update batches of this graph and the router keeps "
            f"only the first {_UPDATE_LOG_CAP} for replay; refusing rather "
            f"than serving a stale answer"
        )
        self.fields = {
            "worker_id": worker_id, "graph": graph,
            "applied": applied, "committed": committed,
        }


@dataclass
class RouterConfig:
    """Tunables for one :class:`RouterService`."""

    host: str = "127.0.0.1"
    port: int = 8642
    vnodes: int = DEFAULT_VNODES
    replica_count: int = 1
    request_timeout_s: float = 60.0
    poll_interval_s: float = 2.0
    hot_key_threshold: int = 8
    hot_key_cold_windows: int = 3
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0


@dataclass
class _Worker:
    """Router-side view of one fleet member."""

    worker_id: str
    url: str
    breaker: CircuitBreaker = field(
        default_factory=lambda: CircuitBreaker(threshold=3, cooldown_s=5.0)
    )


class FleetManager:
    """Spawns and supervises N worker processes on loopback ports.

    Each worker is the existing ``serve`` machinery —
    ``python -m repro serve --role worker --worker-id w<i> --port 0`` —
    so the fleet reuses every single-process behavior (admission
    control, caches, crash recovery) unchanged.  ``start`` blocks until
    every worker has printed its announce line and returns the
    ``{worker_id: url}`` table the router routes by.
    """

    def __init__(
        self,
        count: int,
        extra_args: Sequence[str] = (),
        index_dir: Optional[str] = None,
        startup_timeout_s: float = 30.0,
        python: str = sys.executable,
    ):
        if not isinstance(count, int) or count < 1:
            raise InvalidParameterError(
                f"fleet size must be an int >= 1, got {count!r}"
            )
        self.count = count
        self.extra_args = list(extra_args)
        self.index_dir = index_dir
        self.startup_timeout_s = startup_timeout_s
        self.python = python
        self._procs: Dict[str, subprocess.Popen] = {}
        self._lock = threading.Lock()

    def _spawn_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # make sure the child can import this very package, regardless
        # of how the router process itself was launched
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing
            else package_root
        )
        return env

    def _spawn(self, worker_id: str) -> subprocess.Popen:
        cmd = [
            self.python, "-m", "repro", "serve",
            "--role", "worker", "--worker-id", worker_id,
            "--host", "127.0.0.1", "--port", "0",
        ]
        if self.index_dir is not None:
            worker_dir = os.path.join(self.index_dir, worker_id)
            os.makedirs(worker_dir, exist_ok=True)
            cmd += ["--index-dir", worker_dir]
        cmd += self.extra_args
        return subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=None,  # worker warnings go to the fleet's stderr
            env=self._spawn_env(),
            text=True,
        )

    @staticmethod
    def _await_announce(
        proc: subprocess.Popen, timeout_s: float
    ) -> Optional[str]:
        """The worker's base URL from its announce line, or None.

        stdout is drained by a daemon thread for the worker's whole
        lifetime so a chatty worker can never block on a full pipe.
        """
        lines: Queue = Queue()

        def _drain() -> None:
            for line in proc.stdout:  # type: ignore[union-attr]
                lines.put(line)

        threading.Thread(target=_drain, daemon=True).start()
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or proc.poll() is not None:
                return None
            try:
                line = lines.get(timeout=min(remaining, 0.25))
            except Empty:
                continue
            if line.startswith(_ANNOUNCE_PREFIX):
                return line[len(_ANNOUNCE_PREFIX):].strip()

    def start(self) -> Dict[str, str]:
        """Spawn the fleet; returns ``{worker_id: base_url}``."""
        workers: Dict[str, str] = {}
        for i in range(self.count):
            worker_id = f"w{i}"
            proc = self._spawn(worker_id)
            url = self._await_announce(proc, self.startup_timeout_s)
            if url is None:
                proc.kill()
                self.terminate()
                raise RuntimeError(
                    f"worker {worker_id} failed to announce within "
                    f"{self.startup_timeout_s}s"
                )
            with self._lock:
                self._procs[worker_id] = proc
            workers[worker_id] = url
        return workers

    def alive(self, worker_id: str) -> bool:
        with self._lock:
            proc = self._procs.get(worker_id)
        return proc is not None and proc.poll() is None

    def kill(self, worker_id: str) -> bool:
        """SIGKILL one worker (the chaos suite's weapon of choice)."""
        with self._lock:
            proc = self._procs.get(worker_id)
        if proc is None or proc.poll() is not None:
            return False
        proc.kill()
        proc.wait()
        return True

    def terminate(self, timeout_s: float = 15.0) -> None:
        """SIGTERM every live worker and wait for the drain."""
        with self._lock:
            procs = list(self._procs.values())
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout_s
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class RouterService:
    """The routing brain: placement, failover, replication, fan-out.

    Transport-free (``handle_request`` maps one request object to one
    response envelope) so the tests can drive it without sockets; over
    HTTP it is served by the same front as the worker
    (:mod:`repro.service.http`).
    """

    # served over HTTP as POST /v1/<op>, and GET /v1/<op> for GET_OPS
    OPS = ("build", "profile", "query", "stats", "topology", "update")
    GET_OPS = ("stats", "topology")

    def __init__(
        self,
        config: RouterConfig,
        workers: Dict[str, str],
        manager: Optional[FleetManager] = None,
    ):
        if not workers:
            raise InvalidParameterError("a fleet needs at least one worker")
        self.config = config
        self.manager = manager
        self._lock = threading.RLock()
        self._workers: Dict[str, _Worker] = {
            worker_id: _Worker(
                worker_id, url.rstrip("/"),
                CircuitBreaker(
                    threshold=config.breaker_threshold,
                    cooldown_s=config.breaker_cooldown_s,
                ),
            )
            for worker_id, url in workers.items()
        }
        self.ring = HashRing(sorted(workers), vnodes=config.vnodes)
        # canonical key -> ordered replica worker ids (owner excluded)
        self._replicas: Dict[str, List[str]] = {}
        self._rr: Dict[str, int] = {}
        # per graph: the replayable update history (the first
        # _UPDATE_LOG_CAP batches) and the committed batch count, past the
        # cap too; per (worker, graph): the batches applied.  All are only
        # consulted when a graph has updates
        self._update_log: Dict[str, List[Dict[str, Any]]] = {}
        self._committed: Dict[str, int] = {}
        self._converged: Dict[Tuple[str, str], int] = {}
        self._graph_locks: Dict[str, threading.Lock] = {}
        self._tracker = HotKeyTracker(
            threshold=config.hot_key_threshold,
            cold_windows=config.hot_key_cold_windows,
        )
        self._recorder = MetricsRecorder()
        self._rec_lock = threading.Lock()
        self._draining = threading.Event()
        self._started = time.monotonic()
        self._poller: Optional[threading.Thread] = None

    # -- small shared helpers -------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._rec_lock:
            self._recorder.counter(name, amount)

    def _event(self, name: str, **fields: Any) -> None:
        """A structured event: on the recorder and as a JSON stderr line."""
        with self._rec_lock:
            self._recorder.event(name, **fields)
        print(
            json.dumps({"event": name, **fields}, sort_keys=True),
            file=sys.stderr, flush=True,
        )

    def _observe(self, name: str, value: float) -> None:
        with self._rec_lock:
            self._recorder.observe(name, value)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        self._draining.set()

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """``(ready, /readyz payload)``: not ready while draining or while
        the ring has no worker."""
        draining = self.draining
        workers = len(self.ring)
        status = "draining" if draining else "ok" if workers else "no_workers"
        return status == "ok", {
            "status": status,
            "draining": draining,
            "workers": workers,
        }

    def metrics_text(self) -> str:
        with self._rec_lock:
            snapshot = self._recorder.snapshot()
        return render_exposition(snapshot)

    def _graph_lock(self, graph: str) -> threading.Lock:
        with self._lock:
            lock = self._graph_locks.get(graph)
            if lock is None:
                lock = self._graph_locks[graph] = threading.Lock()
            return lock

    def _worker(self, worker_id: Optional[str]) -> Optional[_Worker]:
        if worker_id is None:
            return None
        with self._lock:
            return self._workers.get(worker_id)

    # -- wire to one worker ---------------------------------------------

    def _forward_once(
        self, worker: _Worker, path: str, obj: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        """One single-shot exchange with one worker.

        No retry loop on purpose: a worker's 429/503 envelope (with its
        histogram-derived ``retry_after_s``) must reach the client
        untouched — backoff is the *client's* job, and the router
        retrying into an overloaded worker would amplify the overload.
        Raises ``OSError`` on connection-level failure.
        """
        body = (
            json.dumps(obj).encode("utf-8") if obj is not None else None
        )
        try:
            status, _, payload = exchange(
                worker.url + path, body, self.config.request_timeout_s
            )
        except urllib.error.URLError as exc:
            reason = exc.reason
            raise reason if isinstance(reason, OSError) else OSError(
                str(reason)
            )
        env = first_envelope(payload)
        if env is None:
            raise OSError(f"empty response body (HTTP {status})")
        return status, env

    def _note_worker_failure(self, worker: _Worker, exc: BaseException) -> None:
        """A connection-level failure talking to ``worker``.

        A provably dead worker leaves the ring immediately —
        reassignment, not cooldown: nothing listens on its port any more
        (a refused connection: a worker closes its socket only to exit),
        or the manager sees its process exit — after a dropped
        connection within ``_EXIT_GRACE_S``, since a killed process drops
        its connections before it can be reaped.  Without a manager
        (static fleet) any dropped connection is the same proof.
        Anything softer (timeout on a live process) just feeds the
        breaker so a struggling worker sheds load without losing its
        keys.
        """
        worker.breaker.record_failure(exc)
        self._count(f"router/worker_errors/{worker.worker_id}")
        dropped = isinstance(exc, ConnectionError)
        if self.manager is None:
            dead = dropped
        else:
            dead = isinstance(exc, ConnectionRefusedError) or self._exits(
                worker.worker_id, _EXIT_GRACE_S if dropped else 0.0
            )
        if dead:
            self._remove_worker(worker.worker_id)

    def _exits(self, worker_id: str, within_s: float) -> bool:
        """Whether the manager sees the worker's process exit within
        ``within_s`` seconds."""
        deadline = time.monotonic() + within_s
        while self.manager.alive(worker_id):
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def _remove_worker(self, worker_id: str) -> bool:
        with self._lock:
            if worker_id not in self._workers:
                return False
            del self._workers[worker_id]
            self.ring.remove(worker_id)
            for key, ids in list(self._replicas.items()):
                remaining = [i for i in ids if i != worker_id]
                if remaining:
                    self._replicas[key] = remaining
                else:
                    del self._replicas[key]
            for pair in [p for p in self._converged if p[0] == worker_id]:
                del self._converged[pair]
        self._count("router/workers_removed")
        print(
            json.dumps({
                "op": "topology", "event": "worker_removed",
                "worker_id": worker_id, "ring_epoch": self.ring.epoch,
            }),
            file=sys.stderr, flush=True,
        )
        return True

    # -- update-log convergence -----------------------------------------

    def _ensure_converged(self, worker: _Worker, graph: str) -> None:
        """Replay any update batches ``worker`` has not applied yet.

        Caller holds the graph lock.  Raises ``OSError`` on a replay that
        fails and :class:`_Unconverged` when the worker lacks a batch the
        log no longer holds, so callers never treat an unconverged worker
        as servable.
        """
        log = self._update_log.get(graph)
        if not log:
            return
        applied = self._converged.get((worker.worker_id, graph), 0)
        for entry in log[applied:]:
            status, env = self._forward_once(worker, "/v1/update", entry)
            if status != 200 or not env.get("applied"):
                raise OSError(
                    f"update replay to {worker.worker_id} failed "
                    f"(HTTP {status}, code {env.get('code')!r})"
                )
            applied += 1
            self._converged[(worker.worker_id, graph)] = applied
            self._count("router/update_replays")
        committed = self._committed[graph]
        if applied < committed:
            raise _Unconverged(worker.worker_id, graph, applied, committed)

    def _overflowed(self, graph: str) -> bool:
        return self._committed.get(graph, 0) > _UPDATE_LOG_CAP

    def _log_update(self, graph: str, entry: Dict[str, Any]) -> int:
        """Count one committed batch and keep it for replay, up to the
        cap; returns the graph's committed batch count."""
        committed = self._committed[graph] = self._committed.get(graph, 0) + 1
        log = self._update_log.setdefault(graph, [])
        if not self._overflowed(graph):
            log.append(entry)
            return committed
        if committed == _UPDATE_LOG_CAP + 1:
            self._count("router/update_log/overflow")
            self._event(
                "update_log_overflow", graph=graph, cap=_UPDATE_LOG_CAP
            )
        # past the cap new owners/replicas can no longer be
        # converged: stop replicating this graph's keys
        for key, _ids in list(self._replicas.items()):
            if graph_string(key) == graph:
                del self._replicas[key]
        return committed

    def _refuse(self, op: str, exc: _Unconverged) -> Dict[str, Any]:
        """The error envelope for a worker that cannot be converged."""
        self._count("router/update_log/refused")
        self._event("update_log_refused", op=op, **exc.fields)
        return error_envelope(op, CODE_ERROR, str(exc))

    # -- request handling -----------------------------------------------

    def handle_line(self, line: str) -> Dict[str, Any]:
        try:
            obj = parse_request(line)
        except InvalidParameterError as exc:
            return self._finish(error_envelope(
                None, CODE_BAD_REQUEST, str(exc)
            ))
        return self.handle_request(obj)

    def handle_request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """One request object in, one stamped response envelope out."""
        op = obj.get("op")
        rid = obj.get("request_id")
        if not isinstance(rid, str) or not rid:
            rid = uuid.uuid4().hex[:16]
            obj = dict(obj, request_id=rid)
        started = time.perf_counter()
        response = self._dispatch(op, obj)
        response.setdefault("request_id", rid)
        if op in _PLACED_OPS and response.get("error") is None:
            temp = (
                "warm"
                if response.get("cached") or response.get("coalesced")
                else "cold"
            )
            self._observe(
                f"service/latency/{op}/{temp}",
                time.perf_counter() - started,
            )
        return self._finish(response)

    def _finish(self, response: Dict[str, Any]) -> Dict[str, Any]:
        return stamp_topology(response, ring_epoch=self.ring.epoch)

    def _dispatch(self, op: Any, obj: Dict[str, Any]) -> Dict[str, Any]:
        if self.draining:
            return error_envelope(op, CODE_ERROR, "router is draining")
        self._count(f"router/requests/{op}")
        try:
            if op == "topology":
                return self._op_topology()
            if op == "stats":
                return self._op_stats()
            if op == "update":
                return self._op_update(obj)
            if op in ("query", "build", "profile"):
                return self._op_forward(op, obj)
            return error_envelope(
                op, CODE_BAD_REQUEST,
                f"unknown op {op!r}; expected one of: "
                + ", ".join(self.OPS),
            )
        except InvalidParameterError as exc:
            return error_envelope(op, CODE_BAD_REQUEST, str(exc))
        except Exception as exc:  # the router must survive anything
            return error_envelope(
                op, CODE_ERROR, f"router internal error: {exc!r}"
            )

    def _candidates(self, op: str, key: str) -> List[str]:
        """Worker ids to try, best first (reads rotate over replicas)."""
        with self._lock:
            owner = self.ring.owner(key)
            if owner is None:
                return []
            pool = [owner] + [
                worker_id for worker_id in self._replicas.get(key, ())
                if worker_id in self._workers and worker_id != owner
            ]
            if op != "query" or len(pool) == 1:
                return pool
            # round-robin reads across owner + warm replicas
            turn = self._rr.get(key, 0)
            self._rr[key] = turn + 1
            start = turn % len(pool)
            return pool[start:] + pool[:start]

    def _op_forward(self, op: str, obj: Dict[str, Any]) -> Dict[str, Any]:
        key = key_string(request_key(obj))
        graph = graph_string(key)
        last_error: Optional[BaseException] = None
        # one extra pass so a ring reassignment after a death gets tried
        for _attempt in range(len(self.ring) + 1):
            candidates = self._candidates(op, key)
            if not candidates:
                break
            for worker_id in candidates:
                worker = self._worker(worker_id)
                if worker is None:
                    continue
                if not worker.breaker.allow():
                    self._count("router/breaker_skips")
                    continue
                try:
                    if graph in self._update_log:
                        with self._graph_lock(graph):
                            self._ensure_converged(worker, graph)
                    status, env = self._forward_once(
                        worker, f"/v1/{op}", obj
                    )
                except OSError as exc:
                    last_error = exc
                    self._note_worker_failure(worker, exc)
                    continue
                except _Unconverged as exc:
                    # the worker is healthy, only behind: no breaker
                    # failure, and it keeps its place in the ring
                    worker.breaker.release_probe()
                    return self._refuse(op, exc)
                worker.breaker.record_success()
                self._count(f"router/forwarded/{worker_id}")
                return env
        if last_error is not None:
            return error_envelope(
                op, CODE_ERROR,
                f"no worker could serve this key after failover: "
                f"{last_error!r}",
            )
        retry_hints = [
            w.breaker.retry_after_s
            for w in self._workers.values()
            if w.breaker.state != CircuitBreaker.CLOSED
        ]
        if retry_hints:
            return error_envelope(
                op, CODE_ERROR,
                "all candidate workers are circuit-broken",
                breaker_open=True,
                retry_after_s=max(retry_hints),
            )
        return error_envelope(op, CODE_ERROR, "no workers in the ring")

    def _op_update(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        key = key_string(request_key(obj))
        graph = graph_string(key)
        with self._graph_lock(graph):
            owner_id = self.ring.owner(key)
            worker = self._worker(owner_id)
            if worker is None:
                return error_envelope(
                    "update", CODE_ERROR, "no workers in the ring"
                )
            # a cold owner (reassigned after a death) first replays the
            # graph's committed history, keeping graph_version monotonic
            try:
                self._ensure_converged(worker, graph)
                status, env = self._forward_once(worker, "/v1/update", obj)
            except OSError as exc:
                self._note_worker_failure(worker, exc)
                # an update is not failed over blind: the connection may
                # have died after the owner applied the batch, and
                # replaying it elsewhere would double-apply
                return error_envelope(
                    "update", CODE_ERROR,
                    f"owner {owner_id} unreachable mid-update; the batch "
                    f"may or may not have been applied: {exc!r}",
                )
            except _Unconverged as exc:
                return self._refuse("update", exc)
            worker.breaker.record_success()
            if status != 200 or not env.get("applied"):
                return env  # rejected / failed on the owner: no fan-out
            entry = {
                k: v for k, v in obj.items()
                if not k.startswith("_") and k != "request_id"
            }
            self._converged[(worker.worker_id, graph)] = self._log_update(
                graph, entry
            )
            env["fanout"] = self._fan_out_update(graph, exclude=owner_id)
        return env

    def _fan_out_update(
        self, graph: str, exclude: Optional[str]
    ) -> Dict[str, Any]:
        """Converge every replica-holding worker of ``graph``.

        Caller holds the graph lock (the owner's batch is already in the
        log, so convergence includes it).  A replica that cannot be
        converged is dropped — never served stale.
        """
        with self._lock:
            targets = {
                worker_id
                for key, ids in self._replicas.items()
                if graph_string(key) == graph
                for worker_id in ids
                if worker_id != exclude and worker_id in self._workers
            }
        converged: List[str] = []
        dropped: List[str] = []
        for worker_id in sorted(targets):
            worker = self._worker(worker_id)
            if worker is None:
                continue
            try:
                self._ensure_converged(worker, graph)
            except OSError as exc:
                dropped.append(worker_id)
                self._note_worker_failure(worker, exc)
                with self._lock:
                    for key, ids in list(self._replicas.items()):
                        if graph_string(key) == graph and worker_id in ids:
                            remaining = [
                                i for i in ids if i != worker_id
                            ]
                            if remaining:
                                self._replicas[key] = remaining
                            else:
                                del self._replicas[key]
                self._count("router/replica/dropped")
                continue
            converged.append(worker_id)
        return {"replicas": converged, "dropped": dropped}

    # -- hot-key replication --------------------------------------------

    def poll_once(self) -> None:
        """One stats-poll + promote/demote round (the poll thread's
        body, callable directly from tests)."""
        merged: Dict[str, int] = {}
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                status, env = self._forward_once(worker, "/v1/stats", None)
            except OSError as exc:
                self._note_worker_failure(worker, exc)
                continue
            if status != 200:
                continue
            worker.breaker.record_success()
            for key, hits in (
                (env.get("stats") or {}).get("key_hits") or {}
            ).items():
                if isinstance(hits, int):
                    merged[key] = merged.get(key, 0) + hits
        self._tracker.observe(merged)
        self._reconcile_replicas()

    def _reconcile_replicas(self) -> None:
        hot = self._tracker.hot_keys()
        for key in hot[:_MAX_REPLICATED_KEYS]:
            with self._lock:
                have = bool(self._replicas.get(key))
                overflowed = self._overflowed(graph_string(key))
            if have or overflowed or len(self.ring) < 2:
                continue
            self._promote(key)
        with self._lock:
            stale = [
                key for key in self._replicas
                if not self._tracker.is_hot(key)
            ]
            for key in stale:
                del self._replicas[key]
        for _ in stale:
            self._count("router/replica/demoted")

    def _promote(self, key: str) -> bool:
        """Warm one replica of ``key`` on its next preference node.

        The replica lands at ``preference[1]`` deliberately: when the
        owner dies, the ring reassigns the key to exactly that node, so
        the hottest keys fail over onto an already-warm index.
        """
        prefs = self.ring.preference(key, 1 + self.config.replica_count)
        targets = prefs[1:]
        if not targets:
            return False
        graph = graph_string(key)
        build_request = dict(parse_key_string(key), op="build")
        promoted: List[str] = []
        for worker_id in targets:
            worker = self._worker(worker_id)
            if worker is None or not worker.breaker.allow():
                continue
            try:
                with self._graph_lock(graph):
                    self._ensure_converged(worker, graph)
                    status, env = self._forward_once(
                        worker, "/v1/build", build_request
                    )
            except OSError as exc:
                self._note_worker_failure(worker, exc)
                continue
            except _Unconverged:
                worker.breaker.release_probe()
                continue  # the graph overflowed since the caller checked
            worker.breaker.record_success()
            if status == 200 and env.get("code") == CODE_OK:
                promoted.append(worker_id)
        if not promoted:
            return False
        with self._lock:
            self._replicas[key] = promoted
        self._count("router/replica/promoted")
        return True

    def start_polling(self) -> None:
        """Launch the background stats-poll thread (idempotent)."""
        if self._poller is not None:
            return

        def _loop() -> None:
            while not self._draining.wait(self.config.poll_interval_s):
                try:
                    self.poll_once()
                except Exception:
                    self._count("router/poll_errors")

        self._poller = threading.Thread(
            target=_loop, name="router-poll", daemon=True
        )
        self._poller.start()

    # -- router-local ops -----------------------------------------------

    def _op_topology(self) -> Dict[str, Any]:
        with self._lock:
            payload = {
                "schema": TOPOLOGY_SCHEMA,
                "epoch": self.ring.epoch,
                "vnodes": self.ring.vnodes,
                "workers": [
                    {"id": worker.worker_id, "url": worker.url}
                    for worker in sorted(
                        self._workers.values(),
                        key=lambda w: w.worker_id,
                    )
                ],
                "replicas": {
                    key: list(ids)
                    for key, ids in sorted(self._replicas.items())
                },
            }
        return envelope("topology", CODE_OK, topology=payload)

    def _op_stats(self) -> Dict[str, Any]:
        with self._rec_lock:
            counters = dict(sorted(self._recorder.counters.items()))
            histograms = {
                name: hist.summary()
                for name, hist in sorted(
                    self._recorder.histograms.items()
                )
            }
        with self._lock:
            workers = {
                worker.worker_id: {
                    "url": worker.url,
                    "alive": (
                        self.manager.alive(worker.worker_id)
                        if self.manager is not None else True
                    ),
                    "breaker": worker.breaker.snapshot(),
                }
                for worker in self._workers.values()
            }
            replicas = {
                key: list(ids) for key, ids in self._replicas.items()
            }
            update_log = {
                graph: len(entries)
                for graph, entries in self._update_log.items()
            }
        payload = {
            "schema": ROUTER_STATS_SCHEMA,
            "uptime_s": time.monotonic() - self._started,
            "draining": self.draining,
            "ring": self.ring.snapshot(),
            "workers": workers,
            "replicas": replicas,
            "update_log": update_log,
            "hot_keys": self._tracker.snapshot(),
            "counters": counters,
            "histograms": histograms,
        }
        return envelope("stats", CODE_OK, stats=payload)

    def stats_snapshot(self) -> Dict[str, Any]:
        return self._op_stats()["stats"]


def make_router(
    config: RouterConfig,
    workers: Dict[str, str],
    manager: Optional[FleetManager] = None,
) -> Tuple[HTTPFront, RouterService]:
    """Bind a router for ``config`` without entering its accept loop
    (tests: bind port 0, read the real port, run in a thread)."""
    service = RouterService(config, workers, manager=manager)
    server = HTTPFront((config.host, config.port), service, "repro-router")
    return server, service


def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 8642,
    fleet: int = 2,
    index_dir: Optional[str] = None,
    worker_args: Sequence[str] = (),
    replica_count: int = 1,
    poll_interval_s: float = 2.0,
) -> int:
    """Spawn ``fleet`` workers plus the router; run until SIGTERM/SIGINT.

    The first signal drains the whole fleet: the router stops accepting,
    every worker gets SIGTERM (each drains its own in-flight requests,
    exactly as standalone), and the router's accept loop stops once the
    workers have exited.
    """
    manager = FleetManager(fleet, extra_args=worker_args, index_dir=index_dir)
    workers = manager.start()
    config = RouterConfig(
        host=host, port=port,
        replica_count=replica_count,
        poll_interval_s=poll_interval_s,
    )
    try:
        server, service = make_router(config, workers, manager=manager)
        service.start_polling()
        announce = (
            f"repro router listening on http://{config.host}:"
            f"{server.server_address[1]} (fleet of {len(workers)} workers)"
        )
        for worker_id, url in sorted(workers.items()):
            announce += f"\nrepro worker {worker_id} at {url}"
        serve_until_signalled(
            server, announce,
            f"draining fleet ({len(workers)} workers)",
            stop=manager.terminate,
        )
    finally:
        manager.terminate()
    print("repro fleet drained", flush=True)
    return 0
