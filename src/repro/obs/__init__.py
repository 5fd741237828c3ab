"""Structured metrics and tracing (`repro.obs`).

Every instrumented entry point in the library takes a recorder through
``options=RunOptions(recorder=...)``, defaulting to the no-op
:data:`NULL_RECORDER`; pass a :class:`MetricsRecorder` to collect
counters, gauges, log-bucketed latency :class:`Histogram`\\ s and nested
phase spans — optionally mirrored as a JSON-lines trace.  Snapshots
render to the Prometheus text format via :func:`render_exposition` (the
service's ``GET /metrics`` endpoint).  See ``docs/observability.md`` for
the event schema and the CLI flags.
"""

from .exposition import (
    histogram_from_buckets,
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
)
from .histogram import DEFAULT_BOUNDS, Histogram, default_bounds
from .recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    SpanRecord,
)
from .validate import validate_metrics, validate_trace_lines

__all__ = [
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "SpanRecord",
    "NULL_RECORDER",
    "Histogram",
    "DEFAULT_BOUNDS",
    "default_bounds",
    "render_exposition",
    "parse_exposition",
    "histogram_from_buckets",
    "sanitize_metric_name",
    "validate_metrics",
    "validate_trace_lines",
]
