"""Structured metrics and tracing for the SCTL* pipeline.

The paper's evaluation (§7) is entirely about *where* time and cliques go
— index build vs. refinement vs. flow verification, paths pruned by
max-depth, vertices dropped by the Lemma 3/4 reductions.  This module
gives every stage of the pipeline a first-class way to report those
numbers:

* :class:`Recorder` — the protocol every instrumented function accepts
  (the public entry points through ``options=RunOptions(recorder=...)``);
* :class:`NullRecorder` — the default.  Every method is a no-op and
  ``enabled`` is ``False``, so instrumented code guards any measurement
  work behind ``if recorder.enabled:`` and library behaviour stays
  byte-identical (and effectively free) when nobody is listening;
* :class:`MetricsRecorder` — collects named **counters** (monotonic
  integer totals), **gauges** (last-written values), **histograms**
  (log-bucketed latency/size distributions, see
  :class:`~repro.obs.Histogram`) and **spans** (monotonic-clock phase
  timers that nest, e.g. ``exact/flow_round/2``), and can mirror
  everything as JSON-lines events to a writable sink for
  machine-readable traces.

:class:`MetricsRecorder` is **thread-safe**: one re-entrant lock guards
every mutation (and the sink, so trace lines never interleave), which is
what lets the :mod:`repro.service` daemon share a single server-wide
recorder across its handler threads.  Span *nesting* state remains one
shared stack — concurrent nested spans from different threads belong on
per-thread recorders (the service gives each request its own and
``absorb``\\ s the snapshot).

A recorder may carry a ``request_id``: the service stamps one per
request at ingress, every trace event the recorder emits then carries a
``"rid"`` field, and the id rides along in :meth:`snapshot` so worker
processes and the server-wide ``absorb`` keep the correlation.

Instrumentation style: hot loops accumulate plain local integers and
report aggregates once per phase or iteration — recorder calls happen at
phase granularity, never per clique.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Tuple

from .histogram import Histogram

try:  # Protocol is typing-only; runtime never dispatches on it
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py<3.8 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = [
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "SpanRecord",
    "NULL_RECORDER",
]


@runtime_checkable
class Recorder(Protocol):
    """What instrumented code may call on a ``recorder=`` argument.

    ``enabled`` gates any non-trivial measurement work (norm computations,
    O(n) scans, per-item tallies): instrumented code must skip it entirely
    when ``enabled`` is ``False``.
    """

    enabled: bool

    def counter(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named monotonic counter."""

    def gauge(self, name: str, value: Any) -> None:
        """Set the named gauge to ``value`` (last write wins)."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""

    def event(self, name: str, **fields: Any) -> None:
        """Emit a free-form trace event."""

    def span(self, name: str, observe: Optional[str] = None) -> "Any":
        """Context manager timing a named (nestable) phase."""


class _NullSpan:
    """Context manager that does nothing; shared singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default recorder: every operation is a no-op.

    A single shared instance, :data:`NULL_RECORDER`, is the default of
    :attr:`RunOptions.recorder <repro.options.RunOptions.recorder>`;
    passing it explicitly is equivalent to not passing a recorder at all.
    """

    __slots__ = ()

    enabled = False

    def counter(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: Any) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def span(self, name: str, observe: Optional[str] = None) -> _NullSpan:
        return _NULL_SPAN


NULL_RECORDER = NullRecorder()


class SpanRecord:
    """One completed span: its full nested path and elapsed seconds."""

    __slots__ = ("path", "seconds")

    def __init__(self, path: str, seconds: float):
        self.path = path
        self.seconds = seconds

    def __repr__(self) -> str:
        return f"SpanRecord({self.path!r}, {self.seconds:.6f}s)"


class _Span:
    """Active span context manager handed out by :meth:`MetricsRecorder.span`."""

    __slots__ = ("_recorder", "_name", "_observe", "_path", "_start")

    def __init__(
        self, recorder: "MetricsRecorder", name: str, observe: Optional[str]
    ):
        self._recorder = recorder
        self._name = name
        self._observe = observe
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._path = self._recorder._enter_span(self._name)
        self._start = self._recorder._clock()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = self._recorder._clock() - self._start
        self._recorder._exit_span(self._path, elapsed, self._observe)
        return False


class MetricsRecorder:
    """Collecting recorder: counters, gauges, histograms, spans, JSONL.

    Parameters
    ----------
    sink:
        Optional writable text stream.  When given, every counter
        increment, gauge write, histogram observation, span boundary and
        free-form event is mirrored as one JSON object per line (the
        trace format validated by :mod:`repro.obs.validate`).
        Aggregates are collected either way; the sink only adds the
        event log.
    clock:
        Monotonic time source (injectable for tests); defaults to
        :func:`time.perf_counter`.
    request_id:
        Optional correlation id.  When set, every emitted trace line
        carries it as ``"rid"`` and :meth:`snapshot` includes it, so the
        id survives the worker-pool snapshot plumbing and the service's
        server-wide ``absorb``.

    Span names nest: entering ``span("flow_round/2")`` while inside
    ``span("exact")`` records the path ``exact/flow_round/2``.  Counter,
    gauge and histogram names are global (not span-scoped) so the same
    series can be accumulated across phases.  ``span(name,
    observe="stage/x")`` additionally records the span's elapsed seconds
    into the named histogram — the pipeline's per-stage latency
    distributions are collected exactly this way.

    All mutation happens under one re-entrant lock: a single recorder
    may be hammered from many threads and every counter increment still
    lands (see the threaded service, which shares one).
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.perf_counter,
        request_id: Optional[str] = None,
    ):
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Any] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: List[SpanRecord] = []
        self.request_id = request_id
        self._sink = sink
        self._clock = clock
        self._t0 = clock()
        self._stack: List[str] = []
        self._lock = threading.RLock()

    # -- recording ------------------------------------------------------

    def counter(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named monotonic counter."""
        with self._lock:
            total = self.counters.get(name, 0) + amount
            self.counters[name] = total
            if self._sink is not None:
                self._emit({"event": "counter", "name": name,
                            "delta": amount, "value": total})

    def gauge(self, name: str, value: Any) -> None:
        """Set the named gauge (last write wins)."""
        with self._lock:
            self.gauges[name] = value
            if self._sink is not None:
                self._emit({"event": "gauge", "name": name, "value": value})

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram.

        Histograms are created on first use with the shared fixed bucket
        boundaries (:data:`~repro.obs.DEFAULT_BOUNDS`), which is what
        makes worker snapshots merge bucket-exactly.
        """
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)
            if self._sink is not None:
                self._emit({"event": "observe", "name": name,
                            "value": _jsonable_value(value)})

    def event(self, name: str, **fields: Any) -> None:
        """Emit a free-form event.

        The event body is trace-only, but aggregate visibility survives a
        sink-less recorder too: every call bumps the ``events/<name>``
        counter, so :meth:`snapshot` reflects event activity even when no
        trace is attached.  (The counter bump is aggregate-only — it does
        not add a ``counter`` line to the trace, keeping event streams
        exactly one line per :meth:`event` call.)
        """
        with self._lock:
            bump = "events/" + name
            self.counters[bump] = self.counters.get(bump, 0) + 1
            if self._sink is not None:
                payload = {"event": "point", "name": name}
                if fields:
                    payload["fields"] = fields
                self._emit(payload)

    def span(self, name: str, observe: Optional[str] = None) -> _Span:
        """Context manager timing the named phase (nests with ``/``).

        With ``observe=`` the elapsed seconds are additionally recorded
        into that histogram on exit — one call site, two views: the
        exact per-occurrence span record and the mergeable distribution.
        """
        return _Span(self, name, observe)

    # -- span plumbing --------------------------------------------------

    def _enter_span(self, name: str) -> str:
        with self._lock:
            path = f"{self._stack[-1]}/{name}" if self._stack else name
            self._stack.append(path)
            if self._sink is not None:
                self._emit({"event": "span_start", "span": path})
            return path

    def _exit_span(
        self, path: str, seconds: float, observe: Optional[str] = None
    ) -> None:
        with self._lock:
            if self._stack and self._stack[-1] == path:
                self._stack.pop()
            self.spans.append(SpanRecord(path, seconds))
            if self._sink is not None:
                self._emit({"event": "span_end", "span": path,
                            "seconds": round(seconds, 9)})
            if observe is not None:
                self.observe(observe, seconds)

    @property
    def current_span(self) -> str:
        """The active span path (empty string at the top level)."""
        with self._lock:
            return self._stack[-1] if self._stack else ""

    def _emit(
        self, payload: Dict[str, Any], rid: Optional[str] = None
    ) -> None:
        payload["t"] = round(self._clock() - self._t0, 9)
        rid = rid if rid is not None else self.request_id
        if rid is not None:
            payload["rid"] = rid
        self._sink.write(json.dumps(payload, default=_jsonable) + "\n")

    # -- merging --------------------------------------------------------

    def absorb(self, snapshot: Dict[str, Any], prefix: str = "") -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Used by the parallel engine and the service to merge worker- and
        request-side measurements into a long-lived trace: counters are
        summed, gauges take the incoming value (last write wins, like a
        local ``gauge`` call), histograms merge **bucket-wise** (shared
        fixed boundaries make this exact — see
        :class:`~repro.obs.Histogram`) and each span aggregate lands as
        one completed span nested under the *current* span path (plus an
        optional ``prefix`` segment).  The sink, when present, sees the
        merged spans as immediately closed ``span_start``/``span_end``
        pairs, which keeps the trace well-bracketed for
        :mod:`repro.obs.validate`; when the incoming snapshot carries a
        ``request_id``, those emitted lines are stamped with it so the
        originating request stays findable in the merged trace.
        """
        with self._lock:
            rid = snapshot.get("request_id")
            for name, total in snapshot.get("counters", {}).items():
                self.counter(name, total)
            for name, value in snapshot.get("gauges", {}).items():
                self.gauge(name, value)
            for name, hist_snap in snapshot.get("histograms", {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram(
                        bounds=hist_snap["bounds"]
                    )
                hist.absorb(hist_snap)
            base = self.current_span
            for entry in snapshot.get("spans", ()):
                path = "/".join(p for p in (base, prefix, entry["span"]) if p)
                if self._sink is not None:
                    self._emit({"event": "span_start", "span": path}, rid=rid)
                self.spans.append(SpanRecord(path, entry["seconds"]))
                if self._sink is not None:
                    self._emit({"event": "span_end", "span": path,
                                "seconds": round(entry["seconds"], 9)},
                               rid=rid)

    # -- reading back ---------------------------------------------------

    def span_totals(self) -> Dict[str, Tuple[int, float]]:
        """Mapping span path -> ``(occurrences, total seconds)``."""
        with self._lock:
            records = list(self.spans)
        totals: Dict[str, Tuple[int, float]] = {}
        for record in records:
            count, seconds = totals.get(record.path, (0, 0.0))
            totals[record.path] = (count + 1, seconds + record.seconds)
        return totals

    def span_seconds(self, prefix: str) -> float:
        """Total seconds of spans whose path equals ``prefix`` or starts
        with ``prefix + "/"`` — e.g. ``span_seconds("exact/flow_round")``
        sums every flow round."""
        with self._lock:
            records = list(self.spans)
        total = 0.0
        lead = prefix + "/"
        for record in records:
            if record.path == prefix or record.path.startswith(lead):
                total += record.seconds
        return total

    def iter_span_paths(self) -> Iterator[str]:
        """Completed span paths in completion order."""
        with self._lock:
            records = list(self.spans)
        for record in records:
            yield record.path

    def quantile(self, name: str, q: float) -> Optional[float]:
        """Quantile ``q`` of the named histogram (None if absent/empty)."""
        with self._lock:
            hist = self.histograms.get(name)
            return hist.quantile(q) if hist is not None else None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable aggregate view of everything recorded."""
        with self._lock:
            payload: Dict[str, Any] = {
                "counters": dict(sorted(self.counters.items())),
                "gauges": {k: _jsonable_value(v)
                           for k, v in sorted(self.gauges.items())},
                "spans": [
                    {"span": path, "count": count,
                     "seconds": round(seconds, 9)}
                    for path, (count, seconds)
                    in sorted(self.span_totals().items())
                ],
            }
            if self.histograms:
                payload["histograms"] = {
                    name: hist.snapshot()
                    for name, hist in sorted(self.histograms.items())
                }
            if self.request_id is not None:
                payload["request_id"] = self.request_id
            return payload

    def write_json(self, path) -> None:
        """Write :meth:`snapshot` to ``path`` as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, default=_jsonable)
            handle.write("\n")

    def __repr__(self) -> str:
        return (
            f"MetricsRecorder(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, "
            f"histograms={len(self.histograms)}, spans={len(self.spans)})"
        )


def _jsonable(value: Any) -> Any:
    """json.dumps ``default`` hook for non-JSON-native gauge values."""
    return _jsonable_value(value)


def _jsonable_value(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    try:  # Fraction and friends
        return float(value)
    except (TypeError, ValueError):
        return str(value)
