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

Every request goes to the one ``endpoint``; against a fleet that is
the router, which converges a key's owner to the graph's committed
``graph_version`` before it serves (see ``docs/service.md``, "Fleet
deployment").  :meth:`ServiceClient.topology` reads the router's ring
and worker table for inspection, and the ``served_by`` and
``ring_epoch`` envelope fields say which worker answered under which
placement generation.

Stdlib-only (one exchange is :func:`repro.service.http.exchange`, over
:mod:`urllib.request`); injectable ``sleep`` and ``rng`` keep the tests
instant and deterministic.  The client holds no sockets between calls,
and :meth:`ServiceClient.close` (also via ``with``) fails further calls
fast.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ServiceUnavailable
from ..results import DenseSubgraphResult
from .http import exchange, first_envelope

__all__ = [
    "ServiceClient",
    "ServiceOutcome",
    "QueryOutcome",
    "ProfileOutcome",
    "UpdateOutcome",
]

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
    ):
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.jitter = jitter
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the client: refuse further calls.  Idempotent; also
        invoked by ``with``-exit."""
        self._closed = True

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- wire level -----------------------------------------------------

    def _once(
        self, path: str, body: Optional[bytes]
    ) -> Tuple[int, Optional[str], bytes]:
        """One :func:`~repro.service.http.exchange` with ``path`` of the
        endpoint."""
        if self._closed:
            raise ServiceUnavailable(
                "client is closed", last_status=None, attempts=0
            )
        return exchange(self.endpoint + path, body, self.timeout_s)

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
        env = first_envelope(payload)
        if env is None:
            raise ServiceUnavailable(
                f"empty response body (HTTP {status}) from {path}",
                last_status=status, attempts=1,
            )
        return env

    def _rpc(
        self, op: str, obj: Dict[str, Any],
        retry_connection_errors: bool = True,
    ) -> Dict[str, Any]:
        body = json.dumps(dict(obj, op=op)).encode("utf-8")
        path = f"/v1/{op}"
        status, payload = self._exchange(
            path, body,
            retry_connection_errors=retry_connection_errors,
        )
        return self._decode(status, payload, path)

    # -- topology -------------------------------------------------------

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
