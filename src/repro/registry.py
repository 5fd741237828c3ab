"""The method registry behind the :func:`repro.densest_subgraph` facade.

The facade historically dispatched on a hand-written ``if name == ...``
ladder.  This module replaces it with a first-class registry:

* every built-in algorithm is a :class:`MethodSpec` — a canonical name,
  an adapter with one uniform call signature, its aliases and whether it
  needs an SCT*-Index;
* :func:`available_methods` lists the canonical names (the facade's
  error messages and the CLI help are generated from it);
* :func:`register_method` lets downstream code plug in new algorithms
  that the facade (and anything built on it) picks up by name.

Name matching is forgiving: lookups are case-insensitive, ignore
surrounding/internal whitespace and treat ``_`` as ``-``, and each
method may carry spelled-out aliases (``"sctl-star"`` for ``"sctl*"``).

Adapter signature
-----------------
Every registered callable is invoked as::

    fn(graph, k, index=..., iterations=..., sample_size=..., seed=...,
       options=...)

with keyword-only arguments after ``k``.  ``index`` is a pre-built
:class:`~repro.core.sct.SCTIndex` when ``needs_index`` is set (the
facade builds it on demand), else whatever the caller passed (usually
``None``).  ``options`` is an always-resolved
:class:`~repro.options.RunOptions`.  Adapters for algorithms that take
fewer knobs simply drop the ones they do not use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .baselines import (
    core_app,
    core_exact,
    greedy_peeling,
    kcl,
    kcl_exact,
    kcl_sample,
)
from .core import (
    sctl,
    sctl_plus,
    sctl_star,
    sctl_star_exact,
    sctl_star_sample,
)
from .errors import InvalidParameterError

__all__ = [
    "MethodSpec",
    "available_methods",
    "get_method",
    "methods_supporting",
    "normalize_method_name",
    "register_method",
]


@dataclass(frozen=True)
class MethodSpec:
    """One algorithm the facade can dispatch to.

    The ``supports_*`` capability flags describe what the adapter
    actually honours, so callers can be rejected up front with a
    lists-valid-names error instead of having a knob silently ignored
    (or failing mid-run):

    * ``supports_update`` — the method re-queries an incrementally
      updated SCT*-Index and accepts ``warm_start=`` re-refinement
      (``POST /v1/update`` validates against this);
    * ``supports_parallel`` — the method shards across a worker pool
      when ``options`` carry a parallel config;
    * ``supports_budget`` — the method polls a
      :class:`~repro.resilience.RunBudget` and degrades to partials.
    """

    name: str
    fn: Callable
    aliases: Tuple[str, ...] = ()
    needs_index: bool = False
    description: str = ""
    supports_update: bool = False
    supports_parallel: bool = False
    supports_budget: bool = False

    def __call__(self, graph, k, **kwargs):
        return self.fn(graph, k, **kwargs)

    def capabilities(self) -> Dict[str, bool]:
        """The capability flags as a JSON-safe dict."""
        return {
            "needs_index": self.needs_index,
            "supports_update": self.supports_update,
            "supports_parallel": self.supports_parallel,
            "supports_budget": self.supports_budget,
        }


_REGISTRY: Dict[str, MethodSpec] = {}
_ALIASES: Dict[str, str] = {}  # normalised alias -> canonical name


def normalize_method_name(name: str) -> str:
    """Canonical lookup key: lowered, whitespace dropped, ``_`` -> ``-``."""
    if not isinstance(name, str):
        raise InvalidParameterError(
            f"method must be a string, got {type(name).__name__}"
        )
    return "".join(name.split()).lower().replace("_", "-")


def register_method(
    name: str,
    fn: Callable,
    aliases: Tuple[str, ...] = (),
    needs_index: bool = False,
    description: str = "",
    supports_update: bool = False,
    supports_parallel: bool = False,
    supports_budget: bool = False,
    overwrite: bool = False,
) -> MethodSpec:
    """Register ``fn`` under ``name`` (plus ``aliases``) for the facade.

    ``fn`` must follow the adapter signature documented in the module
    docstring.  Re-registering an existing name or alias raises
    :class:`~repro.errors.InvalidParameterError` unless ``overwrite`` is
    set (aliases of the replaced method are retired with it).
    """
    if not callable(fn):
        raise InvalidParameterError(f"method {name!r} must be callable")
    key = normalize_method_name(name)
    if not key:
        raise InvalidParameterError("method name must be non-empty")
    alias_keys = tuple(normalize_method_name(a) for a in aliases)
    taken = {
        k for k in (key, *alias_keys)
        if k in _REGISTRY or k in _ALIASES
    }
    if taken and not overwrite:
        raise InvalidParameterError(
            f"method name(s) already registered: {', '.join(sorted(taken))}; "
            "pass overwrite=True to replace"
        )
    clashing = {
        k for k in alias_keys
        if _canonical(k) not in (None, key)
    } | ({key} if _ALIASES.get(key) else set())
    if clashing and overwrite:
        raise InvalidParameterError(
            "name(s) already belong to a different method: "
            f"{', '.join(sorted(clashing))}"
        )
    if key in _REGISTRY:
        # retire the old spec's aliases before re-pointing the name
        for alias, target in list(_ALIASES.items()):
            if target == key:
                del _ALIASES[alias]
    spec = MethodSpec(
        name=key,
        fn=fn,
        aliases=alias_keys,
        needs_index=needs_index,
        description=description,
        supports_update=supports_update,
        supports_parallel=supports_parallel,
        supports_budget=supports_budget,
    )
    _REGISTRY[key] = spec
    for alias in alias_keys:
        _ALIASES[alias] = key
    return spec


def _canonical(key: str) -> Optional[str]:
    if key in _REGISTRY:
        return key
    return _ALIASES.get(key)


def available_methods(detail: bool = False):
    """Canonical method names the facade accepts, sorted.

    With ``detail=True`` each entry is a dict carrying the method's
    ``description``, ``aliases`` and capability flags (``needs_index``,
    ``supports_update``, ``supports_parallel``, ``supports_budget``) —
    the machine-readable form the service and CLI help render from.
    """
    if not detail:
        return sorted(_REGISTRY)
    return [
        dict(
            name=name,
            description=spec.description,
            aliases=list(spec.aliases),
            **spec.capabilities(),
        )
        for name, spec in sorted(_REGISTRY.items())
    ]


def methods_supporting(capability: str) -> List[str]:
    """Canonical names of methods whose ``supports_<capability>`` is set.

    ``capability`` is ``"update"`` / ``"parallel"`` / ``"budget"``;
    anything else raises :class:`~repro.errors.InvalidParameterError`.
    """
    attr = f"supports_{capability}"
    if capability not in ("update", "parallel", "budget"):
        raise InvalidParameterError(
            f"unknown capability {capability!r}; expected one of: "
            "update, parallel, budget"
        )
    return sorted(
        name for name, spec in _REGISTRY.items() if getattr(spec, attr)
    )


def get_method(name: str) -> MethodSpec:
    """Resolve a (possibly aliased, oddly-cased) name to its spec."""
    key = normalize_method_name(name)
    canonical = _canonical(key)
    if canonical is None:
        raise InvalidParameterError(
            f"unknown method {name!r}; expected one of: "
            + ", ".join(available_methods())
        )
    return _REGISTRY[canonical]


# ---------------------------------------------------------------------------
# built-in methods


def _adapt_sctl(graph, k, index=None, iterations=10, sample_size=None,
                seed=0, options=None):
    return sctl(index, k, iterations=iterations, options=options)


def _adapt_sctl_plus(graph, k, index=None, iterations=10, sample_size=None,
                     seed=0, options=None):
    return sctl_plus(index, k, iterations=iterations, graph=graph,
                     options=options)


def _adapt_sctl_star(graph, k, index=None, iterations=10, sample_size=None,
                     seed=0, options=None):
    return sctl_star(index, k, iterations=iterations, graph=graph,
                     options=options)


def _adapt_sctl_star_sample(graph, k, index=None, iterations=10,
                            sample_size=None, seed=0, options=None):
    return sctl_star_sample(
        index, k, sample_size=sample_size, iterations=iterations, seed=seed,
        options=options,
    )


def _adapt_sctl_star_exact(graph, k, index=None, iterations=10,
                           sample_size=None, seed=0, options=None):
    return sctl_star_exact(
        graph, k, index=index, sample_size=sample_size,
        iterations=iterations, seed=seed, options=options,
    )


def _adapt_kcl(graph, k, index=None, iterations=10, sample_size=None,
               seed=0, options=None):
    return kcl(graph, k, iterations=iterations, options=options)


def _adapt_kcl_sample(graph, k, index=None, iterations=10, sample_size=None,
                      seed=0, options=None):
    return kcl_sample(graph, k, sample_size=sample_size,
                      iterations=iterations, seed=seed, options=options)


def _adapt_kcl_exact(graph, k, index=None, iterations=10, sample_size=None,
                     seed=0, options=None):
    return kcl_exact(graph, k, initial_iterations=iterations, options=options)


def _adapt_core_app(graph, k, index=None, iterations=10, sample_size=None,
                    seed=0, options=None):
    return core_app(graph, k, options=options)


def _adapt_core_exact(graph, k, index=None, iterations=10, sample_size=None,
                      seed=0, options=None):
    return core_exact(graph, k, options=options)


def _adapt_peel(graph, k, index=None, iterations=10, sample_size=None,
                seed=0, options=None):
    return greedy_peeling(graph, k, options=options)


register_method(
    "sctl", _adapt_sctl, needs_index=True,
    supports_update=True, supports_parallel=True, supports_budget=True,
    description="Index-driven weight refinement (Algorithm 2).",
)
register_method(
    "sctl+", _adapt_sctl_plus, aliases=("sctl-plus",), needs_index=True,
    supports_update=True, supports_parallel=True, supports_budget=True,
    description="SCTL with the clique-connectivity reduction.",
)
register_method(
    "sctl*", _adapt_sctl_star, aliases=("sctl-star",), needs_index=True,
    supports_update=True, supports_parallel=True, supports_budget=True,
    description="SCTL with both reductions and batch updates (Algorithm 6).",
)
register_method(
    "sctl*-sample", _adapt_sctl_star_sample,
    aliases=("sctl-star-sample",), needs_index=True,
    supports_parallel=True, supports_budget=True,
    description="SCTL* on an index-drawn uniform clique sample.",
)
register_method(
    "sctl*-exact", _adapt_sctl_star_exact,
    aliases=("sctl-star-exact",), needs_index=True,
    supports_parallel=True, supports_budget=True,
    description="Sampling-warm-started flow-certified exact solver "
                "(Algorithm 7).",
)
register_method(
    "kcl", _adapt_kcl,
    description="KClist++ refinement baseline, re-enumerates per round.",
)
register_method(
    "kcl-sample", _adapt_kcl_sample,
    description="KCL on a reservoir sample of k-cliques.",
)
register_method(
    "kcl-exact", _adapt_kcl_exact,
    description="Frank-Wolfe exact baseline with stability checks.",
)
register_method(
    "coreapp", _adapt_core_app, aliases=("core-app",),
    description="(k'_max, Psi)-core 1/k approximation.",
)
register_method(
    "coreexact", _adapt_core_exact, aliases=("core-exact",),
    description="Core-reduced per-component exact baseline.",
)
register_method(
    "peel", _adapt_peel, aliases=("peeling", "greedy-peeling"),
    description="Minimum-engagement greedy peel (1/k approximation).",
)
