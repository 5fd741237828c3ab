"""Resilience layer (`repro.resilience`): budgets, checkpoints, faults.

Three cooperating pieces harden the long-running SCTL* pipeline:

* :class:`RunBudget` — a wall-clock deadline, optional iteration cap and
  cooperative ``cancel()`` / signal hook, threaded through every
  pipeline stage as ``options=RunOptions(budget=...)``.  Hot loops poll it
  behind a cheap ``budget.active`` guard, so the default
  :data:`NULL_BUDGET` path stays byte-identical to an unbudgeted run.
  On exhaustion, result-returning stages degrade to a
  :class:`~repro.results.PartialResult` with their best-so-far
  answer instead of crashing.
* :class:`Checkpointer` — periodic atomic snapshots (temp file +
  ``os.replace``, versioned header, CRC-verified on load) of index-build
  frontier state and SCTL weight vectors, with a ``resume`` restart that
  is parity-tested against an uninterrupted run.
* :class:`FaultPlan` — raises, cancels or delays at named stage
  boundaries (the obs span names), so CI can prove interrupt-anywhere
  safety; ``python -m repro.resilience.chaos`` sweeps one fault per
  pipeline stage.
* :class:`AdmissionGate` / :class:`AdmissionController` /
  :class:`CircuitBreaker` (:mod:`repro.resilience.overload`) — bounded
  concurrency with a small wait queue per endpoint class, and a
  per-cache-key consecutive-failure latch with half-open probes; the
  service composes them into 429/Retry-After overload handling.

See ``docs/robustness.md`` for the full API and semantics.
"""

from ..errors import BudgetExhausted, CheckpointError, TimeoutExceeded
from ..results import PartialResult
from .budget import NULL_BUDGET, Budget, NullBudget, RunBudget
from .checkpoint import Checkpointer, atomic_writer, require_match
from .faults import (
    PIPELINE_STAGES,
    Fault,
    FaultInjected,
    FaultInjectingRecorder,
    FaultPlan,
)
from .overload import (
    AdmissionController,
    AdmissionDecision,
    AdmissionGate,
    CircuitBreaker,
    HotKeyTracker,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionGate",
    "CircuitBreaker",
    "HotKeyTracker",
    "Budget",
    "NullBudget",
    "RunBudget",
    "NULL_BUDGET",
    "Checkpointer",
    "atomic_writer",
    "require_match",
    "Fault",
    "FaultPlan",
    "FaultInjected",
    "FaultInjectingRecorder",
    "PIPELINE_STAGES",
    "PartialResult",
    "BudgetExhausted",
    "TimeoutExceeded",
    "CheckpointError",
]
