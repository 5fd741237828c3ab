"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Specific subclasses communicate which subsystem raised
the error.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Invalid graph construction or graph operation."""


class InvalidParameterError(ReproError):
    """An algorithm parameter is outside its valid range (e.g. ``k < 3``)."""


class IndexBuildError(ReproError):
    """The SCT*-Index could not be built with the requested options."""


class IndexQueryError(ReproError):
    """The SCT*-Index cannot answer the requested query.

    Raised, for instance, when a partial ``SCT*-k'-Index`` is asked to list
    k-cliques for ``k`` below its build threshold.
    """


class DatasetError(ReproError):
    """Unknown dataset name or malformed dataset file."""


class EdgeListParseError(DatasetError, GraphError):
    """A malformed line in an edge-list file.

    Carries the 1-based ``lineno`` and the offending ``text`` so callers
    (and the CLI) can point at the exact input that failed.  Subclasses
    both :class:`DatasetError` (it is a malformed dataset file) and
    :class:`GraphError` (it surfaces from graph I/O), so either family
    catches it.
    """

    def __init__(self, lineno: int, text: str, message: str = ""):
        self.lineno = lineno
        self.text = text
        detail = message or (
            f"line {lineno}: expected two vertex tokens, got {text!r}"
        )
        super().__init__(detail)


class SolverError(ReproError):
    """An exact solver failed to converge or verify optimality."""


class BudgetExhausted(ReproError):
    """A :class:`~repro.resilience.RunBudget` ran out or was cancelled.

    ``reason`` is one of ``"deadline"``, ``"max_iterations"`` or
    ``"cancelled"``; ``stage`` names the pipeline stage (obs span name)
    that observed the exhaustion, when known.  Result-returning entry
    points catch this internally and degrade to a
    :class:`~repro.results.PartialResult`; only non-result producers
    (``SCTIndex.build``, ``iter_paths``) let it propagate.
    """

    def __init__(self, message: str = "run budget exhausted",
                 reason: str = "deadline", stage: str = ""):
        self.reason = reason
        self.stage = stage
        super().__init__(message)


class CheckpointError(ReproError):
    """A checkpoint snapshot is missing fields, corrupt, or incompatible
    with the run attempting to resume from it."""


class WorkerCrashError(ReproError):
    """A pool worker died abnormally (SIGKILL/OOM) during a sweep.

    The parallel engine raises this internally when it detects a dead
    worker mid-``imap``; it recovers by rebuilding the pool and re-running
    the unacknowledged chunks, degrading to in-process serial execution
    after :attr:`~repro.parallel.ParallelConfig.max_crash_retries`
    rebuilds.  It only escapes to callers if even the serial fallback is
    impossible."""


class CircuitOpenError(ReproError):
    """A circuit breaker is open: recent attempts for this cache key kept
    failing, so the request fast-fails instead of re-running doomed work.

    ``retry_after_s`` says when the next half-open probe is due;
    ``last_error`` carries the failure that tripped the breaker."""

    def __init__(self, message: str, retry_after_s: float = 0.0,
                 last_error: "BaseException | None" = None):
        self.retry_after_s = retry_after_s
        self.last_error = last_error
        super().__init__(message)


class ServiceUnavailable(ReproError):
    """The service client exhausted its retries against an unavailable or
    overloaded daemon.

    ``last_status`` is the final HTTP status observed (None when the
    connection itself failed); ``attempts`` counts requests sent."""

    def __init__(self, message: str, last_status: "int | None" = None,
                 attempts: int = 0):
        self.last_status = last_status
        self.attempts = attempts
        super().__init__(message)


class TimeoutExceeded(BudgetExhausted):
    """A run exceeded its wall-clock budget.

    Historically the bench harness's soft-timeout type; it is now the
    ``reason == "deadline"`` case of :class:`BudgetExhausted`, so bench
    and core share one exhaustion family.
    """

    def __init__(self, budget_seconds: float, message: str = "",
                 stage: str = ""):
        self.budget_seconds = budget_seconds
        detail = message or f"exceeded time budget of {budget_seconds:.3f}s"
        super().__init__(detail, reason="deadline", stage=stage)
