"""Retrying HTTP client for the query daemon.

The server side of the overload story (admission control, circuit
breakers — see ``docs/robustness.md``) only works if clients cooperate:
a 429 or 503 means *back off and come back*, not *hammer until it
sticks*.  :class:`ServiceClient` encodes that contract once so the CLI
(``repro query --endpoint``), the smoke scripts and the chaos suite all
behave identically:

* retries on 429/503 responses and on connection-level failures
  (connection refused, reset, short read) with **exponential backoff
  plus full jitter**, capped per attempt;
* honours a ``Retry-After`` header when the server sends one — the
  server computes it from its latency histograms, which beats any guess
  the client could make;
* never retries 4xx other than 429 (the request itself is wrong) and
  never retries a response that parsed into a well-formed envelope with
  a non-rejected code — budget exhaustion (code 3/4) is an *outcome*,
  not an availability problem;
* retries **idempotent-safe ops only** across connection failures:
  ``update`` mutates the graph, and a connection that died mid-exchange
  may have died *after* the server applied the batch, so replaying it
  blind would double-apply; a 429/503 *response*, by contrast, proves
  the update was rejected before it started and is always safe to retry;
* raises :class:`~repro.errors.ServiceUnavailable` carrying the final
  status and attempt count once retries are exhausted.

The op helpers return typed **outcomes** — thin ``dict`` subclasses of
the decoded envelope (so raw access, ``json.dumps`` and equality keep
working) with properties for the fields that matter:
:class:`QueryOutcome.result` decodes the embedded payload into a
:class:`~repro.results.DenseSubgraphResult`,
:class:`UpdateOutcome.applied` answers "did the batch commit", and every
outcome exposes ``.ok`` / ``.code`` / ``.error`` / ``.request_id`` /
``.graph_version``.  :meth:`ServiceClient.rpc` is the raw escape hatch
for ops (or fields) this client has no helper for.

**Topology awareness** (``topology_aware=True``): against a fleet front
(see ``docs/service.md``, "Fleet deployment") the client fetches
``GET /v1/topology`` once, rebuilds the router's :class:`HashRing`
locally from the member list (placement is a pure function of the member
set, so both sides agree), and sends ``query``/``build``/``profile``
straight to the owning worker — skipping the router hop on the hot path.
Anything that goes wrong with a direct attempt (connection failure, a
5xx, an overloaded worker) falls back through the router, which is
always correct; a ``ring_epoch`` on a router response that differs from
the cached epoch marks the topology stale and re-fetches it before the
next routing decision.  ``update`` and ``stats`` always go through the
router — update must fan out to replicas, and stats aggregation is the
router's job.

Stdlib-only (:mod:`urllib.request`); injectable ``sleep`` and ``rng``
keep the tests instant and deterministic.  The client holds no sockets
between calls, but :meth:`ServiceClient.close` (also via ``with``)
drops the cached topology and fails further calls fast, so a closed
client cannot silently keep routing.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import InvalidParameterError, ServiceUnavailable
from ..results import DenseSubgraphResult
from .hashring import HashRing, key_string, request_key

__all__ = [
    "ServiceClient",
    "ServiceOutcome",
    "QueryOutcome",
    "ProfileOutcome",
    "UpdateOutcome",
]

# ops a topology-aware client may send straight to the owning worker;
# update is excluded (must fan out via the router) and stats is a
# whole-fleet aggregate
_ROUTABLE_OPS = ("query", "build", "profile")

# statuses worth retrying: the request was fine, the server was not ready
_RETRYABLE_STATUSES = (429, 503)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Decode a ``Retry-After`` header (delta-seconds form only)."""
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None  # HTTP-date form: not worth a date parser here
    return seconds if seconds >= 0 else None


class ServiceOutcome(dict):
    """A decoded ``repro/service-v1`` envelope with typed accessors.

    Subclassing ``dict`` keeps every raw-envelope idiom working —
    ``outcome["code"]``, ``outcome.get("error")``, ``json.dumps`` — so
    the typed surface is additive, not a migration.
    """

    @property
    def code(self) -> int:
        return int(self.get("code", 1))

    @property
    def ok(self) -> bool:
        """Code 0 and no error: the op fully succeeded."""
        return self.code == 0 and not self.get("error")

    @property
    def error(self) -> Optional[str]:
        return self.get("error")

    @property
    def request_id(self) -> Optional[str]:
        return self.get("request_id")

    @property
    def graph_version(self) -> Optional[int]:
        """The graph version this response was computed against."""
        return self.get("graph_version")

    @property
    def rejected(self) -> bool:
        """Refused by admission control before any work started."""
        return bool(self.get("rejected"))

    @property
    def retry_after_s(self) -> Optional[float]:
        return self.get("retry_after_s")

    @property
    def served_by(self) -> Optional[str]:
        """Worker id that computed this response (v1.1 fleets only)."""
        return self.get("served_by")

    @property
    def ring_epoch(self) -> Optional[int]:
        """Router ring epoch this response was served under (v1.1)."""
        return self.get("ring_epoch")


class QueryOutcome(ServiceOutcome):
    """Outcome of :meth:`ServiceClient.query`."""

    @property
    def result(self) -> Optional[DenseSubgraphResult]:
        """The embedded ``repro/result-v1`` payload, decoded (or None)."""
        payload = self.get("result")
        if payload is None:
            return None
        return DenseSubgraphResult.from_dict(payload)

    @property
    def cached(self) -> bool:
        return bool(self.get("cached"))

    @property
    def coalesced(self) -> bool:
        return bool(self.get("coalesced"))

    @property
    def query_time_s(self) -> Optional[float]:
        return self.get("query_time_s")


class ProfileOutcome(ServiceOutcome):
    """Outcome of :meth:`ServiceClient.profile`."""

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One ``{k, size, clique_count, density}`` row per clique size."""
        return list((self.get("profile") or {}).get("rows") or ())

    @property
    def densest_k(self) -> Optional[int]:
        return (self.get("profile") or {}).get("densest_k")


class UpdateOutcome(ServiceOutcome):
    """Outcome of :meth:`ServiceClient.update`."""

    @property
    def applied(self) -> bool:
        """Whether the edge batch committed (False on a code-4 partial)."""
        return bool(self.get("applied"))

    @property
    def update(self) -> Dict[str, Any]:
        """The dirty-region digest (``DirtyRegion.summary()`` fields)."""
        return dict(self.get("update") or {})

    @property
    def invalidated_results(self) -> int:
        return int(self.get("invalidated_results", 0))

    @property
    def retained_results(self) -> int:
        return int(self.get("retained_results", 0))


class ServiceClient:
    """A small, polite client for one daemon endpoint.

    ``endpoint`` is the base URL (``http://127.0.0.1:8642``); the op
    helpers POST to the ``/v1/<op>`` routes and return the decoded
    ``repro/service-v1`` envelope.  Construction is cheap and the client
    is stateless between calls, so sharing one across threads is fine.
    """

    def __init__(
        self,
        endpoint: str,
        timeout_s: float = 30.0,
        max_retries: int = 5,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 10.0,
        jitter: float = 0.1,
        sleep=time.sleep,
        rng: Optional[random.Random] = None,
        topology_aware: bool = False,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.jitter = jitter
        self.topology_aware = topology_aware
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._closed = False
        # cached fleet topology: (ring, {worker_id: base_url}, router epoch)
        self._topo_lock = threading.Lock()
        self._topo: Optional[Tuple[HashRing, Dict[str, str], int]] = None
        self._topo_stale = True

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the client: drop the cached topology and refuse
        further calls.  Idempotent; also invoked by ``with``-exit."""
        self._closed = True
        with self._topo_lock:
            self._topo = None
            self._topo_stale = True

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- wire level -----------------------------------------------------

    def _once(
        self, path: str, body: Optional[bytes],
        base: Optional[str] = None,
    ) -> Tuple[int, Optional[str], bytes]:
        """One HTTP exchange: ``(status, retry_after_header, body)``.

        Raises ``OSError`` (including ``URLError``) on connection-level
        failure; HTTP error statuses are returned, not raised.  ``base``
        overrides the endpoint (topology-aware direct-to-worker calls).
        """
        if self._closed:
            raise ServiceUnavailable(
                "client is closed", last_status=None, attempts=0
            )
        request = urllib.request.Request(
            (base if base is not None else self.endpoint) + path,
            data=body,
            method="POST" if body is not None else "GET",
            headers={"Content-Type": "application/x-ndjson"}
            if body is not None else {},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return (
                    response.status,
                    response.headers.get("Retry-After"),
                    response.read(),
                )
        except urllib.error.HTTPError as exc:
            # an error status with a readable body is still an exchange
            with exc:
                return exc.code, exc.headers.get("Retry-After"), exc.read()

    def _backoff(self, attempt: int, retry_after: Optional[str]) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        hinted = _parse_retry_after(retry_after)
        if hinted is not None:
            base = min(hinted, self.backoff_max_s)
        else:
            base = min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** (attempt - 1)),
            )
        # full jitter on top, so a herd of rejected clients spreads out
        return base + self._rng.uniform(0, self.jitter * base)

    def _exchange(
        self, path: str, body: Optional[bytes],
        retry_connection_errors: bool = True,
    ) -> Tuple[int, bytes]:
        """POST/GET with retries; returns ``(status, body)`` on success.

        Success means any status outside :data:`_RETRYABLE_STATUSES`
        reached after at most ``max_retries`` retries.  With
        ``retry_connection_errors=False`` a connection-level failure
        raises immediately: the exchange may have reached the server
        before dying, so a non-idempotent op must not be replayed.
        """
        attempts = 0
        last_status: Optional[int] = None
        last_error: Optional[BaseException] = None
        retry_after: Optional[str] = None
        while attempts <= self.max_retries:
            if attempts:
                self._sleep(self._backoff(attempts, retry_after))
            attempts += 1
            try:
                status, retry_after, payload = self._once(path, body)
            except (OSError, urllib.error.URLError) as exc:
                if not retry_connection_errors:
                    raise ServiceUnavailable(
                        f"{self.endpoint}{path} connection failed and this "
                        "op is not safe to replay (the request may have "
                        f"been applied): {exc!r}",
                        last_status=None,
                        attempts=attempts,
                    )
                last_status, last_error = None, exc
                continue
            if status in _RETRYABLE_STATUSES:
                last_status, last_error = status, None
                continue
            return status, payload
        detail = (
            f"HTTP {last_status}" if last_status is not None
            else f"connection failed ({last_error!r})"
        )
        raise ServiceUnavailable(
            f"{self.endpoint}{path} unavailable after {attempts} attempts: "
            f"{detail}",
            last_status=last_status,
            attempts=attempts,
        )

    @staticmethod
    def _decode(status: int, payload: bytes, path: str) -> Dict[str, Any]:
        lines = [ln for ln in payload.decode("utf-8").splitlines() if ln]
        if not lines:
            raise ServiceUnavailable(
                f"empty response body (HTTP {status}) from {path}",
                last_status=status, attempts=1,
            )
        return json.loads(lines[0])

    def _rpc(
        self, op: str, obj: Dict[str, Any],
        retry_connection_errors: bool = True,
    ) -> Dict[str, Any]:
        body = json.dumps(dict(obj, op=op)).encode("utf-8")
        path = f"/v1/{op}"
        if self.topology_aware and op in _ROUTABLE_OPS:
            env = self._try_direct(path, body, obj)
            if env is not None:
                return env
        status, payload = self._exchange(
            path, body,
            retry_connection_errors=retry_connection_errors,
        )
        env = self._decode(status, payload, path)
        self._note_epoch(env)
        return env

    # -- topology awareness ---------------------------------------------

    def topology(self) -> "ServiceOutcome":
        """``GET /v1/topology`` from the router: ring epoch, worker
        table and replica map (raises against a single-process daemon,
        which has no topology surface)."""
        status, _, payload = self._once("/v1/topology", None)
        if status != 200:
            raise ServiceUnavailable(
                f"/v1/topology returned HTTP {status}",
                last_status=status, attempts=1,
            )
        return ServiceOutcome(self._decode(status, payload, "/v1/topology"))

    def _note_epoch(self, env: Dict[str, Any]) -> None:
        """Mark the cached topology stale when a router response proves
        the ring moved under us."""
        epoch = env.get("ring_epoch")
        if not isinstance(epoch, int):
            return
        with self._topo_lock:
            if self._topo is not None and self._topo[2] != epoch:
                self._topo_stale = True

    def _topology_snapshot(
        self,
    ) -> Optional[Tuple[HashRing, Dict[str, str], int]]:
        """The cached ``(ring, worker table, epoch)``, re-fetched when
        stale; None when the endpoint has no topology surface."""
        with self._topo_lock:
            if self._topo is not None and not self._topo_stale:
                return self._topo
        try:
            topo = self.topology().get("topology") or {}
        except (ServiceUnavailable, OSError, urllib.error.URLError,
                json.JSONDecodeError):
            with self._topo_lock:
                self._topo = None
                self._topo_stale = True
            return None
        workers = {
            worker["id"]: worker["url"].rstrip("/")
            for worker in topo.get("workers", ())
            if isinstance(worker, dict) and worker.get("url")
        }
        if not workers:
            return None
        # placement is a pure function of (member set, vnodes): rebuild
        # the router's ring locally instead of shipping vnode positions
        ring = HashRing(
            sorted(workers), vnodes=int(topo.get("vnodes", 0) or 64)
        )
        snapshot = (ring, workers, int(topo.get("epoch", 0)))
        with self._topo_lock:
            self._topo = snapshot
            self._topo_stale = False
        return snapshot

    def _try_direct(
        self, path: str, body: bytes, obj: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """One direct-to-owner attempt; None means *fall back through
        the router* (no topology, unroutable request, worker trouble)."""
        topo = self._topology_snapshot()
        if topo is None:
            return None
        ring, workers, _ = topo
        try:
            key = key_string(request_key(obj))
        except (InvalidParameterError, TypeError, ValueError):
            return None  # malformed request: let the server say why
        owner = ring.owner(key)
        base = workers.get(owner) if owner else None
        if base is None:
            return None
        try:
            status, _, payload = self._once(path, body, base=base)
        except (OSError, urllib.error.URLError):
            # the worker may be gone; the router knows the live ring
            with self._topo_lock:
                self._topo_stale = True
            return None
        if status in _RETRYABLE_STATUSES or status >= 500:
            if status >= 500:
                with self._topo_lock:
                    self._topo_stale = True
            return None
        return self._decode(status, payload, path)

    # -- ops ------------------------------------------------------------

    def rpc(
        self,
        op: str,
        obj: Optional[Dict[str, Any]] = None,
        retry_connection_errors: Optional[bool] = None,
        **fields: Any,
    ) -> "ServiceOutcome":
        """Raw escape hatch: POST any op, get the decoded envelope.

        For ops this client has no typed helper for (or fields the
        helpers do not model).  Connection-error retries follow the
        idempotency rule by default — everything retries except
        ``update`` — and can be forced either way explicitly.  Returns a
        :class:`ServiceOutcome`; prefer the typed helpers where one exists.
        """
        if retry_connection_errors is None:
            retry_connection_errors = op != "update"
        return ServiceOutcome(self._rpc(
            op, dict(obj or {}, **fields),
            retry_connection_errors=retry_connection_errors,
        ))

    def query(self, **fields: Any) -> QueryOutcome:
        """``op=query``; pass ``dataset``/``path``, ``k``, etc. as kwargs."""
        return QueryOutcome(self._rpc("query", fields))

    def build(self, **fields: Any) -> ServiceOutcome:
        return ServiceOutcome(self._rpc("build", fields))

    def profile(self, **fields: Any) -> ProfileOutcome:
        return ProfileOutcome(self._rpc("profile", fields))

    def stats(self, **fields: Any) -> ServiceOutcome:
        return ServiceOutcome(self._rpc("stats", fields))

    def update(
        self,
        inserts: Union[List, Tuple] = (),
        deletes: Union[List, Tuple] = (),
        **fields: Any,
    ) -> UpdateOutcome:
        """``op=update``: apply an edge batch to the graph and its index.

        Retried on 429/503 responses (the server proved it never started
        the update) but **not** across connection failures — the batch
        may already have been applied, and replaying it would fail
        validation at best and double-apply at worst.
        """
        payload = dict(
            fields,
            inserts=[list(edge) for edge in inserts],
            deletes=[list(edge) for edge in deletes],
        )
        return UpdateOutcome(
            self._rpc("update", payload, retry_connection_errors=False)
        )

    # -- probes (no retries beyond the shared loop) ---------------------

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness probe — NOT retried: a 503 (draining) *is* the answer."""
        status, _, payload = self._once("/healthz", None)
        return status, json.loads(payload.decode("utf-8"))

    def readyz(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness probe — NOT retried on 503: a not-ready answer is
        the information the caller asked for, not a failure."""
        status, _, payload = self._once("/readyz", None)
        return status, json.loads(payload.decode("utf-8"))

    def metrics(self) -> str:
        status, payload = self._exchange("/metrics", None)
        if status != 200:
            raise ServiceUnavailable(
                f"/metrics returned HTTP {status}",
                last_status=status, attempts=1,
            )
        return payload.decode("utf-8")
