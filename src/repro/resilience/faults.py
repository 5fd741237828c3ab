"""Fault injection at pipeline stage boundaries (`repro.resilience.faults`).

CI proves interrupt-anywhere safety by *injecting* interrupts: a
:class:`FaultPlan` names pipeline stages — the obs span names every
instrumented function already announces (``"index/build"``,
``"refine/iteration/3"``, ``"exact/flow_round/1"``, ...) — and an action
to take when the stage boundary is crossed:

* ``"raise"`` — throw :class:`FaultInjected`, simulating a crash exactly
  at that boundary (the chaos harness then resumes from checkpoints);
* ``"cancel"`` — cooperatively cancel an attached
  :class:`~repro.resilience.budget.RunBudget`, so the pipeline must
  degrade to a well-formed :class:`~repro.results.PartialResult`;
* ``"delay"`` — sleep, for shaking out deadline races.

The plan plugs in through the observability seam: :meth:`FaultPlan.recorder`
wraps any :class:`~repro.obs.Recorder` (the null one by default) and fires
faults from ``span()`` boundaries, so no production code knows faults
exist and coverage automatically tracks the instrumented stage set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..obs import NULL_RECORDER, Recorder
from .budget import RunBudget

__all__ = ["Fault", "FaultInjected", "FaultPlan", "PIPELINE_STAGES"]

# The instrumented stage families of the SCTL* pipeline (obs span names;
# a trailing element like ``refine/iteration/3`` matches the family
# ``refine/iteration``).  The chaos sweep injects one fault per entry.
PIPELINE_STAGES: Tuple[str, ...] = (
    "index/build",
    "ordered_view",
    "refine/path_table",
    "reductions/engagement",
    "reductions/kp_computation",
    "refine/iteration",
    "sample/draw",
    "sample/refine",
    "sample/recover",
    "exact/warm_start",
    "exact/scope_reduction",
    "exact/scope_index",
    "exact/flow_round",
)


class FaultInjected(ReproError):
    """The error a ``"raise"`` fault throws at its target stage boundary."""

    def __init__(self, stage: str, when: str = "enter"):
        self.stage = stage
        self.when = when
        super().__init__(f"injected fault at {when} of stage {stage!r}")


@dataclass
class Fault:
    """One planned fault.

    ``stage`` matches a span *name* exactly or as a path prefix, so
    ``"refine/iteration"`` hits ``"refine/iteration/1"`` too.  The fault
    fires on its ``hit``-th matching boundary, once.
    """

    stage: str
    action: str = "raise"  # "raise" | "cancel" | "delay"
    when: str = "enter"  # "enter" | "exit"
    hit: int = 1
    seconds: float = 0.0  # for "delay"
    budget: Optional[RunBudget] = None  # for "cancel"
    _seen: int = field(default=0, repr=False)
    _spent: bool = field(default=False, repr=False)

    def matches(self, name: str) -> bool:
        return name == self.stage or name.startswith(self.stage + "/")

    def fire(self, name: str, when: str) -> None:
        if self._spent or when != self.when or not self.matches(name):
            return
        self._seen += 1
        if self._seen < self.hit:
            return
        self._spent = True
        if self.action == "raise":
            raise FaultInjected(name, when)
        if self.action == "cancel":
            if self.budget is None:
                raise ValueError(
                    f"cancel fault at {self.stage!r} has no budget attached"
                )
            self.budget.cancel(f"fault injected at {name}")
        elif self.action == "delay":
            time.sleep(self.seconds)


class FaultPlan:
    """A set of :class:`Fault` entries plus the trigger log.

    Use :meth:`recorder` to obtain the injecting recorder to pass as
    ``options=RunOptions(recorder=...)`` to the code under test;
    :attr:`triggered` records every fault that actually fired, so tests
    can distinguish "survived the fault" from "the fault never happened".
    """

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: List[Fault] = list(faults)
        self.triggered: List[Tuple[str, str, str]] = []  # (stage, action, when)

    # -- convenience constructors --------------------------------------

    @classmethod
    def raising(cls, stage: str, hit: int = 1, when: str = "enter") -> "FaultPlan":
        """A plan that crashes at the ``hit``-th boundary of ``stage``."""
        return cls([Fault(stage, action="raise", hit=hit, when=when)])

    @classmethod
    def cancelling(
        cls, stage: str, budget: RunBudget, hit: int = 1, when: str = "enter"
    ) -> "FaultPlan":
        """A plan that cancels ``budget`` at the boundary of ``stage``."""
        return cls([Fault(stage, action="cancel", hit=hit, when=when,
                          budget=budget)])

    @classmethod
    def delaying(
        cls, stage: str, seconds: float, hit: int = 1, when: str = "enter"
    ) -> "FaultPlan":
        """A plan that sleeps ``seconds`` at the boundary of ``stage``."""
        return cls([Fault(stage, action="delay", hit=hit, when=when,
                          seconds=seconds)])

    # -- wiring ---------------------------------------------------------

    def fire(self, name: str, when: str) -> None:
        """Fire every armed fault matching this boundary (may raise)."""
        for fault in self.faults:
            before = fault._spent
            try:
                fault.fire(name, when)  # may raise FaultInjected
            finally:
                # log the trigger even when the fault raises — tests need to
                # distinguish "survived the fault" from "never reached it"
                if fault._spent and not before:
                    self.triggered.append((name, fault.action, when))

    def recorder(self, inner: Recorder = NULL_RECORDER) -> "FaultInjectingRecorder":
        """A :class:`~repro.obs.Recorder` that injects this plan's faults."""
        return FaultInjectingRecorder(self, inner)

    def __repr__(self) -> str:
        return f"FaultPlan({self.faults!r})"


class _FaultSpan:
    """Span context manager firing plan boundaries around the inner span."""

    __slots__ = ("_plan", "_name", "_inner")

    def __init__(self, plan: FaultPlan, name: str, inner: Any):
        self._plan = plan
        self._name = name
        self._inner = inner

    def __enter__(self) -> "_FaultSpan":
        self._plan.fire(self._name, "enter")
        self._inner.__enter__()
        return self

    def __exit__(self, *exc: Any) -> bool:
        suppressed = self._inner.__exit__(*exc)
        if exc[0] is None:  # exit boundaries only fire on clean exits
            self._plan.fire(self._name, "exit")
        return bool(suppressed)


class FaultInjectingRecorder:
    """Recorder wrapper that fires a :class:`FaultPlan` at span boundaries.

    Counters, gauges and events delegate untouched to the wrapped
    recorder (the null one by default), and ``enabled`` mirrors it — so
    fault injection perturbs *only* control flow at stage boundaries,
    never the measurement path.
    """

    def __init__(self, plan: FaultPlan, inner: Recorder = NULL_RECORDER):
        self.plan = plan
        self.inner = inner
        self.enabled = inner.enabled

    def counter(self, name: str, amount: int = 1) -> None:
        self.inner.counter(name, amount)

    def gauge(self, name: str, value: Any) -> None:
        self.inner.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.inner.observe(name, value)

    def event(self, name: str, **fields: Any) -> None:
        self.inner.event(name, **fields)

    def span(self, name: str, observe: Optional[str] = None) -> _FaultSpan:
        return _FaultSpan(
            self.plan, name, self.inner.span(name, observe=observe)
        )

    def __repr__(self) -> str:
        return f"FaultInjectingRecorder({self.plan!r})"
