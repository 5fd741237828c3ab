"""Run budgets: cooperative wall-clock / iteration limits and cancellation.

The paper's heavy workloads — SCT*-Index builds and SCTL*-Exact's doubling
refinement-plus-max-flow rounds — run for hours on billion-clique graphs.
A :class:`RunBudget`, passed as ``options=RunOptions(budget=...)``, reaches
every stage of that pipeline so a run can stop *cooperatively*: hot loops poll
at iteration/path granularity behind a cheap ``budget.active`` guard (the
same pattern as ``recorder.enabled`` in :mod:`repro.obs`), so the default
:data:`NULL_BUDGET` path stays byte-identical to an unbudgeted run.

On exhaustion, result-returning stages degrade to a
:class:`~repro.results.PartialResult` carrying their best-so-far
answer; producers that cannot return a result (``SCTIndex.build``,
``iter_paths``) raise the matching :class:`~repro.errors.BudgetExhausted`
subtype instead (:class:`~repro.errors.TimeoutExceeded` for deadlines).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..errors import BudgetExhausted, TimeoutExceeded

__all__ = ["Budget", "NullBudget", "RunBudget", "NULL_BUDGET"]

try:  # Protocol is typing-only; runtime never dispatches on it
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py<3.8 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class Budget(Protocol):
    """What budget-aware code may call on a ``budget=`` argument.

    ``active`` gates *all* polling work: instrumented loops must skip
    every budget call when it is ``False``, keeping the default path free.
    """

    active: bool

    def exceeded(self) -> Optional[str]:
        """``None`` while within budget, else the exhaustion reason."""

    def check(self, stage: str = "") -> None:
        """Raise the matching :class:`BudgetExhausted` if exhausted."""

    def error(self, reason: str, stage: str = "") -> BudgetExhausted:
        """Build (not raise) the exception for an observed ``reason``."""

    def tick(self) -> None:
        """Count one completed refinement iteration against the budget."""


class NullBudget:
    """The zero-overhead default budget: never exhausted, every call a no-op.

    A single shared instance, :data:`NULL_BUDGET`, is the default of
    :attr:`RunOptions.budget <repro.options.RunOptions.budget>`.
    """

    __slots__ = ()

    active = False
    cancelled = False

    def exceeded(self) -> Optional[str]:
        return None

    def check(self, stage: str = "") -> None:
        pass

    def error(self, reason: str, stage: str = "") -> BudgetExhausted:
        return BudgetExhausted(reason=reason, stage=stage)

    def tick(self) -> None:
        pass

    def remaining(self) -> Optional[float]:
        return None


NULL_BUDGET = NullBudget()


class RunBudget:
    """A cooperative budget for one pipeline run.

    Parameters
    ----------
    wall_seconds:
        Wall-clock limit; the deadline is ``clock() + wall_seconds`` at
        construction, so one budget threaded through several stages is a
        single shared deadline for the whole run.
    max_iterations:
        Global cap on refinement iterations (:meth:`tick` calls) across
        every stage the budget passes through.
    clock:
        Monotonic time source (injectable for deterministic tests);
        defaults to :func:`time.monotonic`.

    A budget with neither limit starts ``active == False`` (free to
    thread through unconditionally); :meth:`cancel` — called directly,
    from another thread, or by the :meth:`on_signal` hook — flips it
    active and exhausts it immediately.
    """

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if wall_seconds is not None and wall_seconds < 0:
            raise ValueError(f"wall_seconds must be >= 0, got {wall_seconds}")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.wall_seconds = wall_seconds
        self.max_iterations = max_iterations
        self._clock = clock
        self._deadline = (
            clock() + wall_seconds if wall_seconds is not None else None
        )
        self._iterations = 0
        self.cancelled = False
        self.cancel_reason = ""
        self.active = wall_seconds is not None or max_iterations is not None

    # -- state ----------------------------------------------------------

    @property
    def iterations(self) -> int:
        """Refinement iterations counted so far (:meth:`tick` calls)."""
        return self._iterations

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` without one)."""
        if self._deadline is None:
            return None
        return self._deadline - self._clock()

    # -- control --------------------------------------------------------

    def cancel(self, reason: str = "") -> None:
        """Cooperatively cancel the run; safe from any thread or handler."""
        self.cancel_reason = reason or "cancelled"
        self.cancelled = True
        self.active = True

    def tick(self) -> None:
        """Count one completed refinement iteration."""
        self._iterations += 1

    @contextmanager
    def on_signal(self, *signums: int) -> Iterator["RunBudget"]:
        """Install handlers that :meth:`cancel` this budget on a signal.

        Defaults to ``SIGINT`` and ``SIGTERM``; previous handlers are
        restored on exit.  Main-thread only (a CPython restriction on
        :func:`signal.signal`).
        """
        if not signums:
            signums = (signal.SIGINT, signal.SIGTERM)

        def handler(signum, frame):  # noqa: ARG001 - signal API
            self.cancel(f"signal {signal.Signals(signum).name}")

        previous = {s: signal.signal(s, handler) for s in signums}
        try:
            yield self
        finally:
            for s, old in previous.items():
                signal.signal(s, old)

    # -- polling --------------------------------------------------------

    def exceeded(self) -> Optional[str]:
        """``None`` while within budget, else the first tripped reason."""
        if self.cancelled:
            return "cancelled"
        if self._deadline is not None and self._clock() >= self._deadline:
            return "deadline"
        if (
            self.max_iterations is not None
            and self._iterations >= self.max_iterations
        ):
            return "max_iterations"
        return None

    def check(self, stage: str = "") -> None:
        """Raise the matching :class:`BudgetExhausted` if exhausted."""
        reason = self.exceeded()
        if reason:
            raise self.error(reason, stage)

    def error(self, reason: str, stage: str = "") -> BudgetExhausted:
        """The exception describing an exhaustion ``reason`` at ``stage``."""
        where = f" in {stage}" if stage else ""
        if reason == "deadline":
            return TimeoutExceeded(
                self.wall_seconds if self.wall_seconds is not None else 0.0,
                f"exceeded time budget of {self.wall_seconds}s{where}",
                stage=stage,
            )
        if reason == "max_iterations":
            return BudgetExhausted(
                f"exceeded iteration budget of {self.max_iterations}{where}",
                reason=reason,
                stage=stage,
            )
        detail = self.cancel_reason or "cancelled"
        return BudgetExhausted(
            f"run cancelled ({detail}){where}", reason="cancelled", stage=stage
        )

    def __repr__(self) -> str:
        limits = []
        if self.wall_seconds is not None:
            limits.append(f"wall_seconds={self.wall_seconds}")
        if self.max_iterations is not None:
            limits.append(f"max_iterations={self.max_iterations}")
        if self.cancelled:
            limits.append("cancelled")
        return f"RunBudget({', '.join(limits)})"
