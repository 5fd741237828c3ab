"""``repro.results`` — the stable, versioned result contract.

Every densest-subgraph entry point in the library — the
:func:`repro.densest_subgraph` facade, the SCTL family, the sampling and
exact solvers, and every baseline — returns a
:class:`DenseSubgraphResult`: a frozen dataclass whose JSON encoding is
versioned under the ``"repro/result-v1"`` schema tag.  The same payload
travels unchanged over the :mod:`repro.service` wire protocol, out of
``repro query --json``, and through
``python -m repro.obs.validate --result``.

Contract rules:

* the dataclass is frozen — a result is a value, not a builder; only the
  free-form ``stats`` and ``timings`` dictionaries may be filled in
  after construction (the facade stamps wall-clock timings there);
* :meth:`DenseSubgraphResult.to_dict` always emits the ``schema`` field
  first and :meth:`DenseSubgraphResult.from_dict` refuses any payload
  whose schema it does not speak, so a version bump can never be
  silently misread;
* consumers may add keys next to the contract fields (the CLI adds
  ``query_time_s``); validators accept unknown keys, so v1 payloads are
  forward-extensible without a version bump.

:class:`PartialResult` is the budget-degradation subclass and shares the
exact same wire encoding with ``"partial": true``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional

from .errors import InvalidParameterError

__all__ = [
    "RESULT_SCHEMA",
    "PROFILE_SCHEMA",
    "STATS_SCHEMA",
    "DenseSubgraphResult",
    "PartialResult",
]

RESULT_SCHEMA = "repro/result-v1"

# sibling payload tags: every machine-readable output the CLI or the
# service emits carries exactly one of these under its "schema" key
PROFILE_SCHEMA = "repro/profile-v1"
STATS_SCHEMA = "repro/stats-v1"


def _normalized_method(name: str) -> str:
    # mirrors repro.registry.normalize_method_name; duplicated because the
    # registry imports the algorithm modules, which import this module
    return "".join(name.split()).lower().replace("_", "-")


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of a free-form value to JSON-native types."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    try:  # Fraction and friends
        return float(value)
    except (TypeError, ValueError):
        return str(value)


@dataclass(frozen=True)
class DenseSubgraphResult:
    """Outcome of a k-clique densest subgraph computation.

    Densities are kept exact: ``clique_count`` and ``len(vertices)`` are
    integers, so :attr:`density_fraction` has no floating-point error.

    Attributes
    ----------
    vertices:
        Sorted vertex ids of the reported subgraph (empty when the graph
        has no k-clique).
    clique_count:
        Number of k-cliques inside the reported subgraph, measured on the
        *original* graph.
    k:
        The clique size queried.
    algorithm:
        Human-readable algorithm name (``"SCTL*"``, ``"KCL"``, ...); the
        :attr:`method` property derives the registry-style name.
    iterations:
        Weight-refinement iterations actually performed.
    upper_bound:
        A certified upper bound on the optimal density, when the algorithm
        produces one (see Remark 1 of the paper); ``None`` otherwise.
    exact:
        ``True`` when the result is verified optimal.
    stats:
        Free-form instrumentation (per-iteration scope sizes, update
        counts...), used by the benchmark harness.  Excluded from the
        wire encoding unless asked for — it can dwarf the result itself —
        and, like ``timings``, excluded from equality: two results that
        report the same subgraph are the same result regardless of how
        much instrumentation each run collected.
    valid:
        ``True`` when ``vertices``/``clique_count`` describe a genuine
        subgraph of the input with its true k-clique count.  Only
        :class:`PartialResult` ever sets this ``False``.
    reason / stage:
        Degradation detail; empty on a complete result (see
        :class:`PartialResult`).
    timings:
        Wall-clock phase timings in seconds (``"total_s"``,
        ``"index_build_s"``...), stamped by the facade, the CLI and the
        service.  Mutable by design: it is the one post-construction
        annotation channel the frozen contract allows.
    """

    vertices: List[int]
    clique_count: int
    k: int
    algorithm: str
    iterations: int = 0
    upper_bound: Optional[float] = None
    exact: bool = False
    stats: Dict[str, Any] = field(default_factory=dict, compare=False)
    valid: bool = True
    reason: str = ""
    stage: str = ""
    timings: Dict[str, float] = field(default_factory=dict, compare=False)

    # -- derived views --------------------------------------------------

    @property
    def size(self) -> int:
        """Number of vertices in the reported subgraph."""
        return len(self.vertices)

    @property
    def density_fraction(self) -> Fraction:
        """Exact k-clique density ``clique_count / size`` (0 when empty)."""
        if not self.vertices:
            return Fraction(0)
        return Fraction(self.clique_count, len(self.vertices))

    @property
    def density(self) -> float:
        """k-clique density as a float."""
        return float(self.density_fraction)

    @property
    def method(self) -> str:
        """Registry-style method name (``"SCTL*-Exact"`` -> ``"sctl*-exact"``)."""
        return _normalized_method(self.algorithm)

    def approximation_ratio(self, optimal_density: Fraction) -> float:
        """``density / optimal_density`` against a known optimum."""
        if optimal_density <= 0:
            return 1.0 if self.density_fraction == 0 else float("inf")
        return float(self.density_fraction / optimal_density)

    @property
    def is_partial(self) -> bool:
        """Whether this is a degraded best-so-far result (see
        :class:`PartialResult`)."""
        return False

    def summary(self) -> str:
        """One-line human-readable summary."""
        flag = "exact" if self.exact else "approx"
        return (
            f"{self.algorithm} (k={self.k}, {flag}): |S|={self.size}, "
            f"cliques={self.clique_count}, density={self.density:.4f}"
        )

    # -- versioned wire encoding ----------------------------------------

    def to_dict(self, include_stats: bool = False) -> Dict[str, Any]:
        """The ``repro/result-v1`` payload (JSON-native values only).

        ``stats`` is excluded by default — it is free-form, can hold a
        full per-vertex weight vector, and is not part of the stable
        contract; pass ``include_stats=True`` to embed a JSON-sanitised
        copy under the ``"stats"`` key.
        """
        payload: Dict[str, Any] = {
            "schema": RESULT_SCHEMA,
            "k": self.k,
            "method": self.method,
            "algorithm": self.algorithm,
            "vertices": list(self.vertices),
            "size": self.size,
            "clique_count": self.clique_count,
            "density": self.density,
            "iterations": self.iterations,
            "upper_bound": (
                None if self.upper_bound is None else float(self.upper_bound)
            ),
            "exact": bool(self.exact),
            "partial": self.is_partial,
            "valid": bool(self.valid),
            "reason": self.reason,
            "stage": self.stage,
            "timings": {str(k): float(v) for k, v in self.timings.items()},
        }
        if include_stats:
            payload["stats"] = _json_safe(self.stats)
        return payload

    def to_json(self, include_stats: bool = False, **dumps_kwargs: Any) -> str:
        """:meth:`to_dict` as a JSON string."""
        return json.dumps(self.to_dict(include_stats=include_stats),
                          **dumps_kwargs)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DenseSubgraphResult":
        """Decode a ``repro/result-v1`` payload back into a result.

        Unknown sibling keys are ignored (consumers may extend payloads);
        an unknown or missing ``schema`` raises
        :class:`~repro.errors.InvalidParameterError` so a future version
        bump can never be silently misread.  Partial payloads come back
        as :class:`PartialResult`.
        """
        if not isinstance(payload, Mapping):
            raise InvalidParameterError(
                f"result payload must be a mapping, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != RESULT_SCHEMA:
            raise InvalidParameterError(
                f"unsupported result schema {schema!r}; this reader speaks "
                f"{RESULT_SCHEMA!r}"
            )
        try:
            kwargs: Dict[str, Any] = dict(
                vertices=list(payload["vertices"]),
                clique_count=payload["clique_count"],
                k=payload["k"],
                algorithm=payload.get("algorithm") or payload.get("method", ""),
            )
        except KeyError as exc:
            raise InvalidParameterError(
                f"result payload is missing required field {exc.args[0]!r}"
            ) from None
        kwargs.update(
            iterations=payload.get("iterations", 0),
            upper_bound=payload.get("upper_bound"),
            exact=bool(payload.get("exact", False)),
            stats=dict(payload.get("stats", {})),
            valid=bool(payload.get("valid", True)),
            reason=payload.get("reason", ""),
            stage=payload.get("stage", ""),
            timings=dict(payload.get("timings", {})),
        )
        if payload.get("partial"):
            return PartialResult(**kwargs)
        return DenseSubgraphResult(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "DenseSubgraphResult":
        """:meth:`from_dict` over a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(
                f"result payload is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)


@dataclass(frozen=True)
class PartialResult(DenseSubgraphResult):
    """Best-so-far outcome of a budget-exhausted or cancelled run.

    Every result-returning stage of the pipeline degrades to this instead
    of crashing when its :class:`~repro.resilience.RunBudget` runs out:
    the inherited fields carry the best *achieved* subgraph at the last
    completed boundary (weights included in ``stats`` where the full run
    would include them), and three fields describe the degradation:

    Attributes
    ----------
    valid:
        ``True`` when ``vertices``/``clique_count`` describe a genuine
        subgraph of the input with its true k-clique count — usable as an
        approximation.  ``False`` when the run stopped before producing
        anything usable (e.g. during the index build); the result is then
        empty and only ``reason``/``stage`` are meaningful.
    reason:
        Why the run stopped: ``"deadline"``, ``"max_iterations"`` or
        ``"cancelled"`` (mirroring
        :attr:`~repro.errors.BudgetExhausted.reason`).
    stage:
        The pipeline stage (obs span name) that observed the exhaustion.
    """

    valid: bool = True
    reason: str = ""
    stage: str = ""

    @property
    def is_partial(self) -> bool:
        return True

    def summary(self) -> str:
        base = super().summary()
        tag = "partial" if self.valid else "partial, no usable result"
        where = f" at {self.stage}" if self.stage else ""
        return f"{base} [{tag}: {self.reason}{where}]"
