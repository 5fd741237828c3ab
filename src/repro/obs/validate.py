"""Schema validation for ``repro.obs`` trace and metrics files.

A **trace** is JSON-lines: one event object per line, as emitted by a
:class:`~repro.obs.MetricsRecorder` with a sink attached.  The schema:

* every line is a JSON object with an ``event`` field in
  ``{"counter", "gauge", "observe", "span_start", "span_end", "point"}``
  and a numeric ``t`` (seconds since the recorder started,
  non-decreasing);
* ``counter`` events carry ``name`` (str), ``delta`` (int) and the
  running ``value`` (int);
* ``gauge`` events carry ``name`` and ``value``;
* ``observe`` events (histogram samples) carry ``name`` and a numeric
  ``value``;
* ``span_start`` / ``span_end`` carry the nested ``span`` path, and
  ``span_end`` adds non-negative ``seconds``; starts and ends must
  balance like a well-formed bracket sequence (spans strictly nest);
* ``point`` events carry ``name`` and optional ``fields``;
* any event may carry ``rid`` — the request-correlation id the service
  stamps at ingress; when present it must be a non-empty string.

A **metrics** file is one JSON object — a
:meth:`~repro.obs.MetricsRecorder.snapshot`: ``counters`` (str -> int),
``gauges`` (str -> JSON value), ``spans`` (list of
``{"span", "count", "seconds"}``) and optionally ``histograms``
(str -> ``{"bounds", "counts", "sum", "count"}`` with strictly
increasing bounds, one overflow bucket, and ``count`` equal to the
bucket total) plus ``request_id``.

A **trajectory** file (``BENCH_trajectory.json``) is a JSON array of
``repro/bench-trajectory-v1`` records — one appended per
``scripts/bench_trajectory.py`` run — each carrying the fixed core
bench numbers (index build, path throughput, warm/cold service query
quantiles).

Beyond traces and metrics, the validator checks every versioned
**payload** the CLI and the :mod:`repro.service` daemon emit, dispatching
on the ``"schema"`` field: ``repro/result-v1`` (round-tripped through
:class:`~repro.results.DenseSubgraphResult` plus consistency checks),
``repro/profile-v1``, ``repro/stats-v1``, the ``repro/service-v1``
response envelope (nested payloads validated recursively), its
``repro/service-v1.1`` fleet extension (optional ``served_by`` /
``ring_epoch``; unknown optional fields are ignored by v1 consumers),
``repro/service-stats-v1``, ``repro/router-stats-v1`` and
``repro/topology-v1``.

Used by the CI observability and service-smoke jobs and usable
standalone::

    python -m repro.obs.validate trace.jsonl --metrics metrics.json
    python -m repro.obs.validate --result response.json
    python -m repro.obs.validate --trajectory BENCH_trajectory.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterable, List, Optional

__all__ = [
    "validate_trace_lines",
    "validate_metrics",
    "validate_result",
    "validate_trajectory",
    "main",
]

_EVENT_TYPES = {
    "counter", "gauge", "observe", "span_start", "span_end", "point",
}


def validate_trace_lines(lines: Iterable[str]) -> List[str]:
    """Validate a JSON-lines trace; return a list of error strings.

    An empty list means the trace conforms to the schema.  Blank lines
    are rejected (a truncated write is a real failure mode for traces).
    """
    errors: List[str] = []
    open_spans: List[str] = []
    last_t = 0.0
    n_lines = 0
    for lineno, line in enumerate(lines, start=1):
        n_lines += 1
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(payload, dict):
            errors.append(f"line {lineno}: expected a JSON object")
            continue
        kind = payload.get("event")
        if kind not in _EVENT_TYPES:
            errors.append(f"line {lineno}: unknown event type {kind!r}")
            continue
        t = payload.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
            errors.append(f"line {lineno}: missing or negative timestamp 't'")
        else:
            if t < last_t:
                errors.append(
                    f"line {lineno}: timestamp {t} precedes previous {last_t}"
                )
            last_t = float(t)
        if "rid" in payload and (
            not isinstance(payload["rid"], str) or not payload["rid"]
        ):
            errors.append(
                f"line {lineno}: 'rid' must be a non-empty string when given"
            )
        if kind in ("counter", "gauge", "observe", "point"):
            if not isinstance(payload.get("name"), str) or not payload["name"]:
                errors.append(f"line {lineno}: {kind} event without a 'name'")
        if kind == "observe":
            v = payload.get("value")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                errors.append(
                    f"line {lineno}: observe event needs a numeric 'value'"
                )
        if kind == "counter":
            for field in ("delta", "value"):
                v = payload.get(field)
                if not isinstance(v, int) or isinstance(v, bool):
                    errors.append(
                        f"line {lineno}: counter field {field!r} must be an int"
                    )
        if kind == "gauge" and "value" not in payload:
            errors.append(f"line {lineno}: gauge event without a 'value'")
        if kind in ("span_start", "span_end"):
            span = payload.get("span")
            if not isinstance(span, str) or not span:
                errors.append(f"line {lineno}: {kind} without a 'span' path")
                continue
            if kind == "span_start":
                open_spans.append(span)
            else:
                seconds = payload.get("seconds")
                if (
                    not isinstance(seconds, (int, float))
                    or isinstance(seconds, bool)
                    or seconds < 0
                ):
                    errors.append(
                        f"line {lineno}: span_end without non-negative 'seconds'"
                    )
                if not open_spans:
                    errors.append(
                        f"line {lineno}: span_end {span!r} with no open span"
                    )
                elif open_spans[-1] != span:
                    errors.append(
                        f"line {lineno}: span_end {span!r} does not match "
                        f"innermost open span {open_spans[-1]!r}"
                    )
                    open_spans.pop()
                else:
                    open_spans.pop()
    for span in open_spans:
        errors.append(f"span {span!r} was started but never ended")
    if n_lines == 0:
        errors.append("trace is empty")
    return errors


def validate_metrics(payload: Any) -> List[str]:
    """Validate a metrics snapshot object; return a list of error strings."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["metrics snapshot must be a JSON object"]
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        errors.append("'counters' must be an object")
    else:
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"counter {name!r} must be an int, got {value!r}")
    if not isinstance(payload.get("gauges"), dict):
        errors.append("'gauges' must be an object")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        errors.append("'spans' must be a list")
    else:
        for i, entry in enumerate(spans):
            if not isinstance(entry, dict):
                errors.append(f"spans[{i}] must be an object")
                continue
            if not isinstance(entry.get("span"), str) or not entry["span"]:
                errors.append(f"spans[{i}] needs a non-empty 'span' path")
            count = entry.get("count")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                errors.append(f"spans[{i}] needs a positive integer 'count'")
            seconds = entry.get("seconds")
            if (
                not isinstance(seconds, (int, float))
                or isinstance(seconds, bool)
                or seconds < 0
            ):
                errors.append(f"spans[{i}] needs non-negative 'seconds'")
    histograms = payload.get("histograms")
    if histograms is not None:
        if not isinstance(histograms, dict):
            errors.append("'histograms' must be an object when given")
        else:
            for name, hist in histograms.items():
                errors.extend(
                    f"histogram {name!r}: {err}"
                    for err in _validate_histogram_snapshot(hist)
                )
    request_id = payload.get("request_id")
    if request_id is not None and (
        not isinstance(request_id, str) or not request_id
    ):
        errors.append("'request_id' must be a non-empty string when given")
    return errors


def _validate_histogram_snapshot(hist: Any) -> List[str]:
    """Structural checks for one ``Histogram.snapshot()`` payload."""
    if not isinstance(hist, dict):
        return ["must be an object"]
    errors: List[str] = []
    bounds = hist.get("bounds")
    if (
        not isinstance(bounds, list)
        or not bounds
        or any(
            not isinstance(b, (int, float)) or isinstance(b, bool)
            for b in bounds
        )
    ):
        errors.append("'bounds' must be a non-empty list of numbers")
        bounds = None
    elif any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        errors.append("'bounds' must strictly increase")
    counts = hist.get("counts")
    if not isinstance(counts, list) or any(
        not isinstance(c, int) or isinstance(c, bool) or c < 0
        for c in counts
    ):
        errors.append("'counts' must be a list of non-negative ints")
        counts = None
    elif bounds is not None and len(counts) != len(bounds) + 1:
        errors.append(
            f"{len(counts)} counts for {len(bounds)} bounds "
            "(expected one overflow bucket)"
        )
    total = hist.get("sum")
    if not isinstance(total, (int, float)) or isinstance(total, bool):
        errors.append("'sum' must be a number")
    count = hist.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        errors.append("'count' must be a non-negative int")
    elif counts is not None and count != sum(counts):
        errors.append(
            f"'count' {count} != sum of bucket counts {sum(counts)}"
        )
    return errors


def _validate_result_v1(payload: dict) -> List[str]:
    from ..errors import InvalidParameterError
    from ..results import DenseSubgraphResult

    errors: List[str] = []
    try:
        result = DenseSubgraphResult.from_dict(payload)
    except InvalidParameterError as exc:
        return [str(exc)]
    vertices = payload.get("vertices")
    if not isinstance(vertices, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in vertices
    ):
        errors.append("'vertices' must be a list of ints")
    if payload.get("size") != len(result.vertices):
        errors.append(
            f"'size' {payload.get('size')!r} != len(vertices) "
            f"{len(result.vertices)}"
        )
    density = payload.get("density")
    if not isinstance(density, (int, float)) or isinstance(density, bool):
        errors.append("'density' must be a number")
    elif abs(density - result.density) > 1e-9:
        errors.append(
            f"'density' {density} != clique_count/size {result.density}"
        )
    if result.k < 1:
        errors.append(f"'k' must be >= 1, got {result.k}")
    if result.clique_count < 0:
        errors.append(f"'clique_count' must be >= 0, got {result.clique_count}")
    if bool(payload.get("partial")) != result.is_partial:
        errors.append("'partial' flag does not round-trip")
    if result.is_partial and result.valid is False and result.vertices:
        errors.append("an invalid partial must not carry vertices")
    if not result.is_partial and not result.valid:
        errors.append("a complete result must have valid=true")
    timings = payload.get("timings", {})
    if not isinstance(timings, dict) or any(
        not isinstance(v, (int, float)) or isinstance(v, bool)
        for v in timings.values()
    ):
        errors.append("'timings' must map names to numbers")
    return errors


def _validate_profile_v1(payload: dict) -> List[str]:
    errors: List[str] = []
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["'rows' must be a non-empty list"]
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}] must be an object")
            continue
        for field in ("k", "size", "clique_count"):
            v = row.get(field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(
                    f"rows[{i}].{field} must be a non-negative int"
                )
        density = row.get("density")
        if (
            not isinstance(density, (int, float))
            or isinstance(density, bool)
            or density < 0
        ):
            errors.append(f"rows[{i}].density must be a non-negative number")
    densest = payload.get("densest_k")
    if densest is not None and densest not in {
        row.get("k") for row in rows if isinstance(row, dict)
    }:
        errors.append(f"'densest_k' {densest!r} is not a row's k")
    return errors


def _validate_stats_v1(payload: dict) -> List[str]:
    errors: List[str] = []
    for field in ("vertices", "edges"):
        v = payload.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errors.append(f"{field!r} must be a non-negative int")
    return errors


def _validate_service_envelope(payload: dict) -> List[str]:
    errors: List[str] = []
    op = payload.get("op")
    if not isinstance(op, str):
        errors.append("'op' must be a string")
    code = payload.get("code")
    if code not in (0, 1, 2, 3, 4, 5):
        errors.append(f"'code' must be one of 0-5, got {code!r}")
    error = payload.get("error")
    if error is not None and not isinstance(error, str):
        errors.append("'error' must be null or a string")
    if code in (1, 2) and not error:
        errors.append(f"an error response (code {code}) needs an 'error'")
    if code == 5:
        # admission rejection: never started, must say so and say when
        # to come back
        if not error:
            errors.append("a rejection (code 5) needs an 'error'")
        if payload.get("rejected") is not True:
            errors.append("a rejection (code 5) must carry 'rejected': true")
    retry_after = payload.get("retry_after_s")
    if retry_after is not None and (
        not isinstance(retry_after, (int, float))
        or isinstance(retry_after, bool)
        or retry_after < 0
    ):
        errors.append(
            "'retry_after_s' must be a non-negative number when given"
        )
    if payload.get("rejected") is True and retry_after is None:
        errors.append("a rejected envelope must carry 'retry_after_s'")
    for nested_key in ("result", "profile", "stats", "graph", "topology"):
        nested = payload.get(nested_key)
        if nested is not None:
            errors.extend(
                f"{nested_key}: {err}" for err in validate_result(nested)
            )
    return errors


def _validate_service_envelope_v11(payload: dict) -> List[str]:
    """``repro/service-v1.1``: v1 plus optional topology fields.

    The compatibility rule (docs/service.md): a v1 consumer must ignore
    unknown optional fields, so every valid v1.1 envelope minus the tag
    is a valid v1 envelope.  This validator checks the additive fields
    and requires at least one of them — an envelope carrying neither
    should have stayed plain v1.
    """
    errors = _validate_service_envelope(payload)
    served_by = payload.get("served_by")
    if served_by is not None and (
        not isinstance(served_by, str) or not served_by
    ):
        errors.append("'served_by' must be a non-empty string when given")
    ring_epoch = payload.get("ring_epoch")
    if ring_epoch is not None and (
        not isinstance(ring_epoch, int)
        or isinstance(ring_epoch, bool)
        or ring_epoch < 0
    ):
        errors.append("'ring_epoch' must be a non-negative int when given")
    if served_by is None and ring_epoch is None:
        errors.append(
            "a v1.1 envelope must carry 'served_by' and/or 'ring_epoch' "
            "(an envelope with neither is plain repro/service-v1)"
        )
    return errors


def _validate_topology_v1(payload: dict) -> List[str]:
    errors: List[str] = []
    epoch = payload.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        errors.append("'epoch' must be a non-negative int")
    vnodes = payload.get("vnodes")
    if not isinstance(vnodes, int) or isinstance(vnodes, bool) or vnodes < 1:
        errors.append("'vnodes' must be a positive int")
    workers = payload.get("workers")
    if not isinstance(workers, list) or not workers:
        errors.append("'workers' must be a non-empty list")
    else:
        seen = set()
        for i, worker in enumerate(workers):
            if not isinstance(worker, dict):
                errors.append(f"workers[{i}] must be an object")
                continue
            worker_id = worker.get("id")
            if not isinstance(worker_id, str) or not worker_id:
                errors.append(f"workers[{i}].id must be a non-empty string")
            elif worker_id in seen:
                errors.append(f"workers[{i}].id {worker_id!r} is duplicated")
            else:
                seen.add(worker_id)
            if not isinstance(worker.get("url"), str) or not worker["url"]:
                errors.append(f"workers[{i}].url must be a non-empty string")
        replicas = payload.get("replicas")
        if replicas is not None:
            if not isinstance(replicas, dict):
                errors.append("'replicas' must be an object when given")
            else:
                for key, ids in replicas.items():
                    if not isinstance(ids, list) or any(
                        not isinstance(w, str) or not w for w in ids
                    ):
                        errors.append(
                            f"replicas[{key!r}] must be a list of "
                            "non-empty worker ids"
                        )
                    elif any(w not in seen for w in ids):
                        errors.append(
                            f"replicas[{key!r}] names a worker not in "
                            "the worker table"
                        )
    return errors


def _validate_router_stats_v1(payload: dict) -> List[str]:
    errors: List[str] = []
    if not isinstance(payload.get("draining"), bool):
        errors.append("'draining' must be a bool")
    ring = payload.get("ring")
    if not isinstance(ring, dict):
        errors.append("'ring' must be an object")
    else:
        epoch = ring.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            errors.append("ring.epoch must be a non-negative int")
        if not isinstance(ring.get("nodes"), list):
            errors.append("ring.nodes must be a list")
    workers = payload.get("workers")
    if not isinstance(workers, dict):
        errors.append("'workers' must be an object")
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        errors.append("'counters' must be an object")
    else:
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(
                    f"counters.{name} must be an int, got {value!r}"
                )
    histograms = payload.get("histograms")
    if histograms is not None and not isinstance(histograms, dict):
        errors.append("'histograms' must be an object when given")
    return errors


# counters every service stats payload must carry (pre-seeded at server
# start), so dashboards and the chaos suite can rely on their presence
_REQUIRED_SERVICE_COUNTERS = ("service/rejected", "parallel/worker_crashes")


def _validate_service_stats_v1(payload: dict) -> List[str]:
    errors: List[str] = []
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        errors.append("'counters' must be an object")
    else:
        for name in _REQUIRED_SERVICE_COUNTERS:
            v = counters.get(name)
            if v is None:
                errors.append(f"counters must include {name!r}")
            elif not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(
                    f"counters.{name} must be a non-negative int, got {v!r}"
                )
    histograms = payload.get("histograms")
    if histograms is not None:
        if not isinstance(histograms, dict):
            errors.append("'histograms' must be an object when given")
        else:
            for name, digest in histograms.items():
                if not isinstance(digest, dict):
                    errors.append(f"histograms.{name} must be an object")
                    continue
                count = digest.get("count")
                if (
                    not isinstance(count, int)
                    or isinstance(count, bool)
                    or count < 0
                ):
                    errors.append(
                        f"histograms.{name}.count must be a non-negative int"
                    )
                for field in ("p50", "p95", "p99"):
                    v = digest.get(field)
                    if v is not None and (
                        not isinstance(v, (int, float)) or isinstance(v, bool)
                    ):
                        errors.append(
                            f"histograms.{name}.{field} must be null "
                            "or a number"
                        )
    for cache in ("index_cache", "result_cache"):
        entry = payload.get(cache)
        if not isinstance(entry, dict):
            errors.append(f"{cache!r} must be an object")
            continue
        for field in ("size", "capacity", "hits", "misses", "evictions"):
            v = entry.get(field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(f"{cache}.{field} must be a non-negative int")
    if not isinstance(payload.get("draining"), bool):
        errors.append("'draining' must be a bool")
    return errors


TRAJECTORY_SCHEMA = "repro/bench-trajectory-v1"

_TRAJECTORY_BENCHES = {
    # bench name -> required non-negative numeric fields
    "index_build": ("seconds",),
    "path_throughput": ("paths", "seconds", "paths_per_s"),
}
_TRAJECTORY_QUANTILES = ("p50_s", "p99_s")

# optional bench (records predating incremental updates stay valid):
# steady-state single-edge toggles through repro.core.update
_TRAJECTORY_UPDATE_FIELDS = (
    "p50_s", "p99_s", "dirty_fraction", "full_rebuild_s",
    "speedup_vs_rebuild",
)


def _validate_update_bench(entry: Any) -> List[str]:
    if not isinstance(entry, dict):
        return ["benches.index_update must be an object"]
    errors: List[str] = []
    count = entry.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        errors.append("benches.index_update.count must be a positive int")
    for field in _TRAJECTORY_UPDATE_FIELDS:
        v = entry.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            errors.append(
                f"benches.index_update.{field} must be a non-negative number"
            )
    fraction = entry.get("dirty_fraction")
    if (
        isinstance(fraction, (int, float))
        and not isinstance(fraction, bool)
        and fraction > 1
    ):
        errors.append("benches.index_update.dirty_fraction must be <= 1")
    return errors


# optional bench: mixed cold/warm load through the router at 1 vs N
# workers, from the fleet bench script that perfbench's fleet-serve
# workload replaced; records that carry one must stay valid
def _validate_fleet_bench(entry: Any) -> List[str]:
    if not isinstance(entry, dict):
        return ["benches.fleet must be an object"]
    errors: List[str] = []
    for arm in ("single", "scaled"):
        digest = entry.get(arm)
        if not isinstance(digest, dict):
            errors.append(f"benches.fleet.{arm} must be an object")
            continue
        workers = digest.get("workers")
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            errors.append(
                f"benches.fleet.{arm}.workers must be a positive int"
            )
        for temperature in ("cold", "warm"):
            quantiles = digest.get(temperature)
            if not isinstance(quantiles, dict):
                errors.append(
                    f"benches.fleet.{arm}.{temperature} must be an object"
                )
                continue
            count = quantiles.get("count")
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 1:
                errors.append(
                    f"benches.fleet.{arm}.{temperature}.count must be "
                    "a positive int"
                )
            for quantile_field in _TRAJECTORY_QUANTILES:
                v = quantiles.get(quantile_field)
                if (
                    not isinstance(v, (int, float))
                    or isinstance(v, bool)
                    or v < 0
                ):
                    errors.append(
                        f"benches.fleet.{arm}.{temperature}."
                        f"{quantile_field} must be a non-negative number"
                    )
        rps = digest.get("cold_throughput_rps")
        if not isinstance(rps, (int, float)) or isinstance(rps, bool) \
                or rps < 0:
            errors.append(
                f"benches.fleet.{arm}.cold_throughput_rps must be a "
                "non-negative number"
            )
    for ratio_field in ("cold_speedup", "warm_p99_ratio"):
        v = entry.get(ratio_field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            errors.append(
                f"benches.fleet.{ratio_field} must be a non-negative number"
            )
    return errors


def _validate_trajectory_record(payload: dict) -> List[str]:
    """One perf-trajectory record (see ``scripts/bench_trajectory.py``)."""
    errors: List[str] = []
    for field in ("recorded_at", "python", "dataset"):
        v = payload.get(field)
        if not isinstance(v, str) or not v:
            errors.append(f"{field!r} must be a non-empty string")
    k = payload.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        errors.append(f"'k' must be a positive int, got {k!r}")
    benches = payload.get("benches")
    if not isinstance(benches, dict):
        return errors + ["'benches' must be an object"]
    for bench, fields in _TRAJECTORY_BENCHES.items():
        entry = benches.get(bench)
        if not isinstance(entry, dict):
            errors.append(f"benches.{bench} must be an object")
            continue
        for field in fields:
            v = entry.get(field)
            if (
                not isinstance(v, (int, float))
                or isinstance(v, bool)
                or v < 0
            ):
                errors.append(
                    f"benches.{bench}.{field} must be a non-negative number"
                )
    service = benches.get("service_query")
    if not isinstance(service, dict):
        errors.append("benches.service_query must be an object")
    else:
        for temperature in ("cold", "warm"):
            digest = service.get(temperature)
            if not isinstance(digest, dict):
                errors.append(
                    f"benches.service_query.{temperature} must be an object"
                )
                continue
            count = digest.get("count")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                errors.append(
                    f"benches.service_query.{temperature}.count must be "
                    "a positive int"
                )
            for field in _TRAJECTORY_QUANTILES:
                v = digest.get(field)
                if (
                    not isinstance(v, (int, float))
                    or isinstance(v, bool)
                    or v < 0
                ):
                    errors.append(
                        f"benches.service_query.{temperature}.{field} "
                        "must be a non-negative number"
                    )
    if "index_update" in benches:
        errors.extend(_validate_update_bench(benches["index_update"]))
    if "fleet" in benches:
        errors.extend(_validate_fleet_bench(benches["fleet"]))
    return errors


def validate_trajectory(payload: Any) -> List[str]:
    """Validate a ``BENCH_trajectory.json`` document (a list of records).

    The trajectory is append-only: every record must carry the
    ``repro/bench-trajectory-v1`` schema tag and the fixed core bench
    numbers, and ``recorded_at`` must be non-decreasing so the file
    reads as a time series.
    """
    if not isinstance(payload, list):
        return ["trajectory must be a JSON array of records"]
    if not payload:
        return ["trajectory must contain at least one record"]
    errors: List[str] = []
    previous_at = ""
    for i, record in enumerate(payload):
        if not isinstance(record, dict):
            errors.append(f"record {i}: must be an object")
            continue
        schema = record.get("schema")
        if schema != TRAJECTORY_SCHEMA:
            errors.append(
                f"record {i}: schema {schema!r} != {TRAJECTORY_SCHEMA!r}"
            )
            continue
        errors.extend(
            f"record {i}: {err}"
            for err in _validate_trajectory_record(record)
        )
        recorded_at = record.get("recorded_at")
        if isinstance(recorded_at, str):
            if recorded_at < previous_at:
                errors.append(
                    f"record {i}: recorded_at {recorded_at!r} precedes "
                    f"previous record's {previous_at!r}"
                )
            previous_at = recorded_at
    return errors


def validate_result(payload: Any) -> List[str]:
    """Validate one versioned payload; return a list of error strings.

    Dispatches on the ``"schema"`` field; unknown schemas are an error
    (a version this validator does not speak must never pass silently).
    Unknown *sibling* keys are allowed — v1 payloads are
    forward-extensible.
    """
    if not isinstance(payload, dict):
        return ["payload must be a JSON object"]
    schema = payload.get("schema")
    validators = {
        "repro/result-v1": _validate_result_v1,
        "repro/profile-v1": _validate_profile_v1,
        "repro/stats-v1": _validate_stats_v1,
        "repro/service-v1": _validate_service_envelope,
        "repro/service-v1.1": _validate_service_envelope_v11,
        "repro/service-stats-v1": _validate_service_stats_v1,
        "repro/router-stats-v1": _validate_router_stats_v1,
        "repro/topology-v1": _validate_topology_v1,
        TRAJECTORY_SCHEMA: _validate_trajectory_record,
    }
    checker = validators.get(schema)
    if checker is None:
        return [
            f"unknown payload schema {schema!r}; expected one of: "
            + ", ".join(sorted(validators))
        ]
    return checker(payload)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: exit 0 when every given file validates."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="validate repro.obs trace (JSON-lines) and metrics files",
    )
    parser.add_argument("trace", nargs="?", help="JSON-lines trace file")
    parser.add_argument("--metrics", help="metrics snapshot JSON file")
    parser.add_argument(
        "--result", action="append", metavar="PATH", default=[],
        help="versioned payload file: a single JSON object (query --json "
             "output) or ND-JSON lines (service responses); repeatable",
    )
    parser.add_argument(
        "--trajectory", action="append", metavar="PATH", default=[],
        help="BENCH_trajectory.json perf-trajectory file (an array of "
             "repro/bench-trajectory-v1 records); repeatable",
    )
    args = parser.parse_args(argv)
    if (
        not args.trace and not args.metrics and not args.result
        and not args.trajectory
    ):
        parser.error(
            "give a trace file, --metrics, --result and/or --trajectory"
        )
    failed = False
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        errors = validate_trace_lines(lines)
        if errors:
            failed = True
            for err in errors:
                print(f"{args.trace}: {err}", file=sys.stderr)
        else:
            n_spans = sum(1 for l in lines if '"span_end"' in l)
            print(f"{args.trace}: OK ({len(lines)} events, {n_spans} spans)")
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                payload = None
                errors = [f"not valid JSON ({exc})"]
            else:
                errors = validate_metrics(payload)
        if errors:
            failed = True
            for err in errors:
                print(f"{args.metrics}: {err}", file=sys.stderr)
        else:
            print(
                f"{args.metrics}: OK ({len(payload['counters'])} counters, "
                f"{len(payload['spans'])} span paths)"
            )
    for result_path in args.result:
        with open(result_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:  # a single (possibly pretty-printed) JSON object...
            payloads = [json.loads(text)]
        except json.JSONDecodeError:
            payloads = []  # ...else ND-JSON, one payload per line
            errors = []
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    payloads.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    errors.append(f"line {lineno}: not valid JSON ({exc})")
            if errors:
                failed = True
                for err in errors:
                    print(f"{result_path}: {err}", file=sys.stderr)
                continue
        if not payloads:
            failed = True
            print(f"{result_path}: no payloads found", file=sys.stderr)
            continue
        file_errors: List[str] = []
        for i, payload in enumerate(payloads):
            for err in validate_result(payload):
                where = f"payload {i + 1}: " if len(payloads) > 1 else ""
                file_errors.append(f"{where}{err}")
        if file_errors:
            failed = True
            for err in file_errors:
                print(f"{result_path}: {err}", file=sys.stderr)
        else:
            schemas = {p.get("schema") for p in payloads}
            print(
                f"{result_path}: OK ({len(payloads)} payload(s), "
                f"schema(s): {', '.join(sorted(schemas))})"
            )
    for trajectory_path in args.trajectory:
        with open(trajectory_path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                payload = None
                errors = [f"not valid JSON ({exc})"]
            else:
                errors = validate_trajectory(payload)
        if errors:
            failed = True
            for err in errors:
                print(f"{trajectory_path}: {err}", file=sys.stderr)
        else:
            print(
                f"{trajectory_path}: OK ({len(payload)} trajectory "
                f"record(s), latest {payload[-1]['recorded_at']})"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
