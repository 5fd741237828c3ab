"""Wire protocol of the query daemon: line-delimited JSON over HTTP.

A **request** is one JSON object per line.  Fields common to every op:

``op``
    ``"query"`` | ``"profile"`` | ``"stats"`` | ``"build"`` |
    ``"update"``.
``dataset`` / ``path``
    Graph source: a bundled synthetic dataset name (``repro datasets``)
    or an edge-list file path readable by the server.  Exactly one is
    required for every op except ``stats`` (server-wide, no graph).
``threshold``
    Partial SCT*-k'-Index threshold (``k'`` in §6.1; default 0 =
    complete index).  Part of the index cache key.
``build_options``
    Free-form JSON object folded into the build fingerprint — two
    requests whose ``(graph, threshold, build_options)`` agree share one
    cached index.
``timeout_s`` / ``max_iterations``
    Per-request :class:`~repro.resilience.RunBudget`.  On expiry the
    response carries a valid best-so-far partial (``code`` 4) or, when
    nothing usable was achieved, an empty invalid partial (``code`` 3) —
    the same exit codes the CLI uses.
``request_id``
    Optional client-chosen correlation id (non-empty string).  Echoed
    verbatim in the response envelope; when omitted the server generates
    one at ingress.  The id is stamped on every trace event (``"rid"``)
    and access-log entry the request produces, including events from
    pool workers.

``query`` adds ``k`` (required), ``method``, ``iterations``,
``sample_size``, ``seed``, ``include_stats``; ``profile`` adds
``iterations``.

``update`` applies an edge batch to the graph *and* its cached
SCT*-Index incrementally (``POST /v1/update``).  It adds ``inserts``
and ``deletes`` — lists of ``[u, v]`` vertex pairs, at least one edge
between them — plus an optional ``method`` that is validated against
the registry's ``supports_update`` capability (unsupported methods are
rejected with code 2 and the list of methods that do).  A successful
response carries ``applied: true``, a ``update`` digest (dirty-region
counters from :class:`~repro.core.update.DirtyRegion`), the counts of
invalidated/retained result-cache entries and the new
``graph_version``.  A budget that expires mid-update returns code 4
with ``applied: false`` — the previous index keeps serving and the
version does not move.

``graph_version`` is a per-graph monotonic counter: 0 until the first
update commits, incremented by each one.  ``query`` and ``build``
responses echo the version their result was computed against, so a
client can tell a pre-update cached answer from a post-update one.

Every **response** is one JSON object per line wrapped in the
``repro/service-v1`` envelope::

    {"schema": "repro/service-v1", "op": ..., "code": 0, "error": null,
     ...op-specific payload...}

``code`` mirrors the CLI exit codes: 0 success, 1 internal error,
2 usage / bad request, 3 budget exhausted with nothing usable, 4 budget
exhausted but a valid partial result is included; code 5 is
service-only: the request was **rejected by admission control**
(concurrency slots and the bounded wait queue are full) and was never
started.  Rejection envelopes carry ``"rejected": true`` and a
``"retry_after_s"`` hint derived from the server's latency histograms;
over HTTP they map to status 429 with a ``Retry-After`` header.  A
request whose ``timeout_s`` provably cannot be met given the current
queue (queue depth × observed p50) is rejected with code 3 semantics
instead — budget exhausted before it began — also flagged
``"rejected": true``.  Responses that fast-failed on an open circuit
breaker carry ``"breaker_open": true`` (HTTP 503) plus
``retry_after_s`` until the next half-open probe.

Every response also carries ``request_id`` (see above).  Query
responses embed the full ``repro/result-v1`` payload under ``"result"``
plus ``cached`` (served from the finished-result cache), ``coalesced``
(shared a concurrent identical computation) and ``query_time_s``.

**Topology fields (``repro/service-v1.1``).**  In a fleet deployment
(see ``docs/service.md``, "Fleet deployment") envelopes grow two
*optional* fields: ``served_by`` — the worker id that computed the
response (stamped by workers started with ``--worker-id`` and by the
router on every forwarded response) — and ``ring_epoch`` — the router's
monotonic hash-ring membership counter, present only on responses that
crossed the router.  An envelope carrying either field is tagged
``schema: repro/service-v1.1``; everything else about the contract is
unchanged.  The compatibility rule is the usual one for optional
fields: **a v1 consumer must ignore unknown optional fields**, so every
valid v1.1 envelope is also a valid v1 envelope minus the tag, and
``python -m repro.obs.validate --result`` accepts both versions.  The
router additionally serves ``GET /v1/topology``: a v1.1 envelope whose
``topology`` payload (``repro/topology-v1``) carries the ring epoch,
the worker table and the warm-replica map, so clients can route
directly to owners.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..errors import InvalidParameterError
from ..results import PROFILE_SCHEMA, RESULT_SCHEMA, STATS_SCHEMA

__all__ = [
    "SERVICE_SCHEMA",
    "SERVICE_SCHEMA_V11",
    "SERVICE_STATS_SCHEMA",
    "ROUTER_STATS_SCHEMA",
    "TOPOLOGY_SCHEMA",
    "RESULT_SCHEMA",
    "PROFILE_SCHEMA",
    "STATS_SCHEMA",
    "KNOWN_OPS",
    "envelope",
    "error_envelope",
    "stamp_topology",
    "parse_request",
]

SERVICE_SCHEMA = "repro/service-v1"
# v1.1 adds the *optional* topology fields served_by / ring_epoch; the
# compatibility rule (unknown optional fields are ignored) makes every
# v1.1 envelope readable by a v1 consumer
SERVICE_SCHEMA_V11 = "repro/service-v1.1"
SERVICE_STATS_SCHEMA = "repro/service-stats-v1"
ROUTER_STATS_SCHEMA = "repro/router-stats-v1"
TOPOLOGY_SCHEMA = "repro/topology-v1"

KNOWN_OPS = ("query", "profile", "stats", "build", "update")

# response codes mirror the CLI exit codes (see repro.cli); 5 is
# service-only: rejected by admission control, never started (HTTP 429)
CODE_OK = 0
CODE_ERROR = 1
CODE_BAD_REQUEST = 2
CODE_EXHAUSTED = 3
CODE_PARTIAL = 4
CODE_REJECTED = 5


def envelope(op: str, code: int = 0, **payload: Any) -> Dict[str, Any]:
    """A well-formed ``repro/service-v1`` response object."""
    body: Dict[str, Any] = {
        "schema": SERVICE_SCHEMA,
        "op": op,
        "code": code,
        "error": None,
    }
    body.update(payload)
    return body


def error_envelope(
    op: Optional[str], code: int, message: str, **payload: Any
) -> Dict[str, Any]:
    """An error response; ``code`` follows the CLI exit-code convention.

    Extra keyword fields (``rejected``, ``retry_after_s``,
    ``breaker_open``, ...) land as envelope siblings.
    """
    body: Dict[str, Any] = {
        "schema": SERVICE_SCHEMA,
        "op": op or "",
        "code": code,
        "error": message,
    }
    body.update(payload)
    return body


def stamp_topology(
    env: Dict[str, Any],
    served_by: Optional[str] = None,
    ring_epoch: Optional[int] = None,
) -> Dict[str, Any]:
    """Stamp the optional topology fields onto ``env`` (in place).

    Any envelope carrying ``served_by`` and/or ``ring_epoch`` is tagged
    with the ``repro/service-v1.1`` schema; an envelope stamped with
    neither is returned untouched, so single-process deployments keep
    emitting plain v1.
    """
    if served_by is not None:
        env["served_by"] = served_by
    if ring_epoch is not None:
        env["ring_epoch"] = ring_epoch
    if "served_by" in env or "ring_epoch" in env:
        env["schema"] = SERVICE_SCHEMA_V11
    return env


def parse_request(line: str) -> Dict[str, Any]:
    """Decode and structurally validate one request line.

    Raises :class:`~repro.errors.InvalidParameterError` (mapped to code 2
    by the server) on anything malformed; op-specific field validation
    happens in the handlers, where the error messages can be specific.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise InvalidParameterError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    op = obj.get("op")
    if op not in KNOWN_OPS:
        raise InvalidParameterError(
            f"unknown op {op!r}; expected one of: {', '.join(KNOWN_OPS)}"
        )
    return obj
