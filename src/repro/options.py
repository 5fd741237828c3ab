"""``RunOptions``: the one bundle for every cross-cutting execution knob.

Every entry point of the pipeline takes the same five knobs —
``recorder`` (:mod:`repro.obs`), ``budget`` and ``checkpoint``/``resume``
(:mod:`repro.resilience`) and ``parallel`` (:mod:`repro.parallel`) — as
one frozen :class:`RunOptions` value passed through ``options=``.  It
travels through the pipeline intact; :meth:`RunOptions.resolve` turns the
``options=None`` default into the all-defaults bundle.

Algorithms that do not support some knob (the pre-SCT baselines support
none) accept ``options=`` anyway and report what they ignore through one
documented :func:`warn_unsupported` warning.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InvalidParameterError
from .obs import NULL_RECORDER, Recorder
from .parallel.config import ParallelConfig

if False:  # typing-only; repro.resilience imports core, which imports us
    from .resilience.budget import Budget

__all__ = ["RunOptions", "warn_unsupported"]


def _null_budget():
    # deferred: importing repro.resilience at module scope would close an
    # import cycle through repro.core back into this module
    from .resilience.budget import NULL_BUDGET

    return NULL_BUDGET

_FIELDS: Tuple[str, ...] = (
    "recorder",
    "budget",
    "checkpoint",
    "resume",
    "parallel",
)


@dataclass(frozen=True)
class RunOptions:
    """Cross-cutting execution options for one pipeline run.

    Attributes
    ----------
    recorder:
        Observability hook (:mod:`repro.obs`); the free
        :data:`~repro.obs.NULL_RECORDER` by default.  ``None`` is
        normalised to the null recorder.
    budget:
        Cooperative :class:`~repro.resilience.RunBudget` (or the free
        :data:`~repro.resilience.NULL_BUDGET`); ``None`` is normalised
        to the null budget.
    checkpoint:
        A :class:`~repro.resilience.Checkpointer` or a directory path
        for atomic progress snapshots (``None`` disables them).
    resume:
        Restart from the snapshots under ``checkpoint``.
    parallel:
        ``None`` (serial), a bare int worker count, or a
        :class:`~repro.parallel.ParallelConfig`; ints are normalised to
        a config.  ``workers=1`` is byte-identical to serial.
    """

    recorder: Recorder = NULL_RECORDER
    budget: Optional["Budget"] = None
    checkpoint: Optional[object] = None
    resume: bool = False
    parallel: Optional[ParallelConfig] = None

    def __post_init__(self) -> None:
        if self.recorder is None:
            object.__setattr__(self, "recorder", NULL_RECORDER)
        if self.budget is None:
            object.__setattr__(self, "budget", _null_budget())
        if not isinstance(self.resume, bool):
            raise InvalidParameterError(
                f"resume must be a bool, got {self.resume!r}"
            )
        object.__setattr__(
            self, "parallel", ParallelConfig.normalize(self.parallel)
        )

    # -- introspection --------------------------------------------------

    def is_default(self, name: str) -> bool:
        """Whether the named knob still carries its free default."""
        value = getattr(self, name)
        if name == "recorder":
            return value is NULL_RECORDER
        if name == "budget":
            return value is _null_budget()
        if name == "resume":
            return value is False
        return value is None  # checkpoint, parallel

    @property
    def workers(self) -> int:
        """Worker count the ``parallel`` knob asks for (1 = serial)."""
        return self.parallel.workers if self.parallel is not None else 1

    def replace(self, **changes) -> "RunOptions":
        """A copy with the given knobs replaced (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    # -- normalisation --------------------------------------------------

    @classmethod
    def resolve(cls, options: Optional["RunOptions"] = None) -> "RunOptions":
        """The given options, or the all-defaults bundle for ``None``.

        Anything else raises :class:`~repro.errors.InvalidParameterError`.
        """
        if options is None:
            return cls()
        if not isinstance(options, RunOptions):
            raise InvalidParameterError(
                f"options must be a RunOptions, got {type(options).__name__}"
            )
        return options


def warn_unsupported(
    options: Optional[RunOptions],
    algorithm: str,
    supported: Tuple[str, ...] = (),
) -> None:
    """One documented warning for knobs an algorithm ignores.

    The pre-SCT baselines (KCL, CoreApp, ...) accept ``options=`` so the
    facade forwards uniformly, but they predate the observability /
    resilience / parallel layers.  When the given options carry any
    non-default knob outside ``supported``, a single
    :class:`UserWarning` names the ignored knobs — the run proceeds,
    exactly as it did before the knob existed.
    """
    if options is None:
        return
    ignored = [
        name
        for name in _FIELDS
        if name not in supported and not options.is_default(name)
    ]
    if ignored:
        warnings.warn(
            f"{algorithm} does not support the RunOptions knob(s) "
            f"{', '.join(ignored)}; they are ignored",
            UserWarning,
            stacklevel=3,
        )
