"""Benchmark harness: timing, soft timeouts, and table/series rendering.

The paper's evaluation machinery, in miniature.  Experiments time algorithm
calls, honour a per-call soft budget (a run whose wall-clock exceeds the
budget is reported as ``time out``, and — like the paper — larger ``k`` on
the same dataset/algorithm pair is skipped once a smaller one timed out),
and render plain-text tables and per-series "figures" that mirror the
paper's layout row for row.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsRecorder, Recorder

__all__ = [
    "Timed",
    "TimedWithMemory",
    "TimeoutTracker",
    "timed",
    "timed_hard",
    "timed_with_memory",
    "timed_with_metrics",
    "format_table",
    "format_series",
]


@dataclass
class Timed:
    """Outcome of one timed call.

    ``metrics`` is a :meth:`repro.obs.MetricsRecorder.snapshot` when the
    call was made through :func:`timed_with_metrics`, ``None`` otherwise.
    """

    result: Any
    seconds: float
    timed_out: bool = False
    metrics: Optional[Dict[str, Any]] = None

    @property
    def cell(self) -> str:
        """Table cell: seconds or ``time out``.

        Sub-millisecond runs render as ``<0.001`` — a literal ``0.000``
        would misread as "did not run at all" in the paper-style tables.
        """
        if self.timed_out:
            return "time out"
        rendered = f"{self.seconds:.3f}"
        return "<0.001" if rendered == "0.000" else rendered

    def stage_seconds(self, span: str) -> Optional[float]:
        """Total seconds recorded under ``span`` (and its sub-spans).

        Matches any span path equal to ``span``, starting with
        ``span + "/"`` — or *ending* with either, so a nested stage like
        ``"index/build"`` is found inside ``exact/scope_index/index/build``
        too.  ``None`` when no metrics were collected or nothing matched.
        """
        if self.metrics is None:
            return None
        total = None
        lead = span + "/"
        for entry in self.metrics.get("spans", []):
            path = entry["span"]
            if (
                path == span
                or path.startswith(lead)
                or path.endswith("/" + span)
                or ("/" + lead) in path
            ):
                total = (total or 0.0) + entry["seconds"]
        return total

    def stage_cell(self, span: str) -> str:
        """Table cell for one pipeline stage, e.g. ``exact/flow_round``.

        Renders like :attr:`cell`; ``-`` when the stage never ran or no
        recorder was attached.  This is what lets a benchmark row carry
        stage breakdowns next to its wall-clock column.
        """
        seconds = self.stage_seconds(span)
        if seconds is None:
            return "-"
        rendered = f"{seconds:.3f}"
        return "<0.001" if rendered == "0.000" else rendered


def timed(fn: Callable[[], Any], budget: Optional[float] = None) -> Timed:
    """Run ``fn`` and measure wall-clock time.

    ``budget`` is a *soft* limit: the call always completes (pure-Python
    code cannot be preempted safely), but the outcome is flagged
    ``timed_out`` when it overruns, and callers report it the way the
    paper reports its ``10^5 s`` limit.
    """
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return Timed(
        result=result,
        seconds=seconds,
        timed_out=budget is not None and seconds > budget,
    )


def timed_with_metrics(
    fn: Callable[[Recorder], Any],
    budget: Optional[float] = None,
    recorder: Optional[MetricsRecorder] = None,
) -> Timed:
    """Run ``fn`` with a metrics recorder attached and keep its snapshot.

    ``fn`` receives a fresh :class:`~repro.obs.MetricsRecorder` (or the
    one supplied) and should pass it through, as
    ``options=RunOptions(recorder=...)``, to whatever it calls.  The
    returned :class:`Timed` carries the recorder's aggregate snapshot in
    ``metrics``, so one benchmark row can print the wall-clock
    :attr:`~Timed.cell` alongside per-stage :meth:`~Timed.stage_cell`
    breakdowns.

    The recorder itself adds measurable (if small) overhead; when
    comparing against plain :func:`timed` wall-clocks, report the stage
    *shares*, not absolute seconds.
    """
    if recorder is None:
        recorder = MetricsRecorder()
    start = time.perf_counter()
    result = fn(recorder)
    seconds = time.perf_counter() - start
    return Timed(
        result=result,
        seconds=seconds,
        timed_out=budget is not None and seconds > budget,
        metrics=recorder.snapshot(),
    )


@dataclass
class TimedWithMemory:
    """Outcome of a timed call with peak-allocation tracking."""

    result: Any
    seconds: float
    peak_bytes: int

    @property
    def peak_mib(self) -> float:
        """Peak tracemalloc allocation in MiB."""
        return self.peak_bytes / (1024 * 1024)


def timed_with_memory(fn: Callable[[], Any]) -> TimedWithMemory:
    """Run ``fn`` measuring wall-clock time *and* peak Python allocations.

    Uses :mod:`tracemalloc`, so only Python-level allocations are counted
    — exactly the per-clique state the paper's memory analysis concerns
    (KCL-Exact stores every clique's weight split; SCTL*-Exact stores a
    reduced scope).  Tracing slows the call down; never mix these numbers
    with plain :func:`timed` measurements.
    """
    import tracemalloc

    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = fn()
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return TimedWithMemory(result=result, seconds=seconds, peak_bytes=peak)


def timed_hard(fn: Callable[[], Any], budget: float) -> Timed:
    """Run ``fn`` in a forked child with a *hard* wall-clock limit.

    Some baseline calls are combinatorially infeasible by design — e.g.
    KCList at ``k = 32`` inside a 34-clique touches ~2^34 recursion nodes,
    which is precisely why the paper reports "time out" for them.  A soft
    budget cannot preempt such a call, so this helper forks, waits up to
    ``budget`` seconds, and terminates the child if needed.

    ``fork`` means the callable need not be picklable (closures and
    lambdas work); only the *result* crosses the process boundary.
    """
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()

    def worker() -> None:
        try:
            queue.put(("ok", fn()))
        except Exception as exc:  # surface child errors to the parent
            queue.put(("error", repr(exc)))

    child = ctx.Process(target=worker)
    start = time.perf_counter()
    child.start()
    child.join(budget)
    if child.is_alive():
        child.terminate()
        child.join()
        return Timed(result=None, seconds=float("inf"), timed_out=True)
    seconds = time.perf_counter() - start
    if queue.empty():  # child died without reporting anything
        # decode how it died: a signal (negative exitcode) names an
        # external killer — SIGKILL usually means the OOM reaper — while
        # a plain nonzero exit is a crash inside the child.  Either way
        # it is a harness-level failure worth raising loudly, not a
        # silent "time out" row; exitcode 0/None keeps the historical
        # timed-out report (the child was torn down mid-put).
        code = child.exitcode
        if code is not None and code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            hint = " (likely the OOM killer)" if -code == signal.SIGKILL else ""
            raise RuntimeError(
                f"hard-timed child died from {name}{hint} "
                f"after {seconds:.3f}s without reporting a result"
            )
        if code:  # nonzero exit, no result on the queue
            raise RuntimeError(
                f"hard-timed child exited with code {code} "
                f"after {seconds:.3f}s without reporting a result"
            )
        return Timed(result=None, seconds=seconds, timed_out=True)
    tag, value = queue.get()
    if tag == "error":
        raise RuntimeError(f"hard-timed call failed in child: {value}")
    return Timed(result=value, seconds=seconds, timed_out=seconds > budget)


@dataclass
class TimeoutTracker:
    """Skip-forward bookkeeping for parameter sweeps.

    Once ``(dataset, algorithm)`` times out, every later (larger) setting
    for that pair is skipped outright — matching how the paper's tables
    show ``time out`` for all subsequent k values.
    """

    budget: float
    _dead: set = field(default_factory=set)

    def run(self, dataset: str, algorithm: str, fn: Callable[[], Any]) -> Timed:
        """Run ``fn`` under the (soft) budget unless the pair timed out."""
        key = (dataset, algorithm)
        if key in self._dead:
            return Timed(result=None, seconds=float("inf"), timed_out=True)
        outcome = timed(fn, budget=self.budget)
        if outcome.timed_out:
            self._dead.add(key)
        return outcome

    def run_hard(self, dataset: str, algorithm: str, fn: Callable[[], Any]) -> Timed:
        """Like :meth:`run`, but with preemptive (forked) enforcement.

        Use for baseline calls that may be combinatorially infeasible —
        the killed child is reported exactly like the paper's "time out"
        rows, and later settings for the pair are skipped.
        """
        key = (dataset, algorithm)
        if key in self._dead:
            return Timed(result=None, seconds=float("inf"), timed_out=True)
        outcome = timed_hard(fn, budget=self.budget)
        if outcome.timed_out:
            self._dead.add(key)
        return outcome


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table (paper-style)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Any],
    series: Dict[str, Sequence[Any]],
    title: str = "",
) -> str:
    """Render figure data as one aligned column block per series.

    The paper's figures are line plots of (k, time) or (k, accuracy); this
    prints the same series so shapes (orderings, crossovers) are visible
    in text output and diffable across runs.
    """
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row: List[Any] = [x]
        for name in series:
            value = series[name][i]
            row.append(f"{value:.4f}" if isinstance(value, float) else value)
        rows.append(row)
    return format_table(headers, rows, title=title)
