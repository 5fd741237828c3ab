"""Public-API surface snapshot: names and signatures are a contract.

If a change here is intentional, update the snapshot in the same commit
and call it out in the changelog — downstream code imports these names
and passes these keywords.
"""

import inspect
import re
import warnings
from pathlib import Path

import repro

EXPECTED_ALL = sorted([
    "Graph",
    "Hypergraph",
    "SCTIndex",
    "SCTPath",
    "DenseSubgraphResult",
    "RESULT_SCHEMA",
    "densest_subgraph",
    "sctl",
    "sctl_plus",
    "sctl_star",
    "sctl_star_sample",
    "sctl_star_exact",
    "kcl",
    "kcl_sample",
    "kcl_exact",
    "core_app",
    "core_exact",
    "greedy_peeling",
    "density_profile",
    "DensityProfile",
    "top_dense_subgraphs",
    "DirtyRegion",
    "methods_supporting",
    "RunOptions",
    "ParallelConfig",
    "MethodSpec",
    "available_methods",
    "get_method",
    "register_method",
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "NULL_RECORDER",
    "PartialResult",
    "Budget",
    "NullBudget",
    "RunBudget",
    "NULL_BUDGET",
    "Checkpointer",
    "FaultPlan",
    "ReproError",
    "GraphError",
    "InvalidParameterError",
    "IndexBuildError",
    "IndexQueryError",
    "DatasetError",
    "EdgeListParseError",
    "SolverError",
    "BudgetExhausted",
    "TimeoutExceeded",
    "CheckpointError",
    "__version__",
])

# parameter-name tuples, in declaration order
EXPECTED_SIGNATURES = {
    "densest_subgraph": (
        "graph", "k", "method", "iterations", "index", "sample_size",
        "seed", "options",
    ),
    "sctl": (
        "index", "k", "iterations", "warm_start", "paths",
        "track_convergence", "options",
    ),
    "sctl_star": (
        "index", "k", "iterations", "warm_start", "graph", "use_reductions",
        "use_batch", "collect_stats", "paths", "algorithm_name", "options",
    ),
    "sctl_star_sample": (
        "index", "k", "sample_size", "iterations", "seed", "use_reduction",
        "paths", "options",
    ),
    "sctl_star_exact": (
        "graph", "k", "index", "sample_size", "iterations", "seed",
        "max_rounds", "options",
    ),
    "kcl": ("graph", "k", "iterations", "view", "options"),
    "kcl_sample": (
        "graph", "k", "sample_size", "iterations", "seed", "view", "options",
    ),
    "kcl_exact": (
        "graph", "k", "initial_iterations", "max_total_iterations", "view",
        "options",
    ),
    "core_app": ("graph", "k", "view", "options"),
    "core_exact": ("graph", "k", "view", "options"),
    "greedy_peeling": ("graph", "k", "view", "options"),
    "register_method": (
        "name", "fn", "aliases", "needs_index", "description",
        "supports_update", "supports_parallel", "supports_budget",
        "overwrite",
    ),
}


def test_all_is_exactly_the_published_surface():
    assert sorted(repro.__all__) == EXPECTED_ALL


def test_every_published_name_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_entry_point_signatures():
    for name, expected in EXPECTED_SIGNATURES.items():
        fn = getattr(repro, name)
        actual = tuple(inspect.signature(fn).parameters)
        assert actual == expected, f"{name}: {actual} != {expected}"


def test_build_signature():
    actual = tuple(inspect.signature(repro.SCTIndex.build).parameters)
    assert actual == ("graph", "threshold", "view", "options")


def test_save_signature():
    # one writer: format v2 (format v1 is read, never written)
    actual = tuple(inspect.signature(repro.SCTIndex.save).parameters)
    assert actual == ("self", "path")


# regexes, not tomllib, which only exists from Python 3.11 on;
# CITATION.cff's ``cff-version`` is the schema version, not ours
VERSION_DECLARATIONS = {
    "pyproject.toml": r'^version\s*=\s*"([^"]+)"',
    "setup.py": r'^\s*version\s*=\s*"([^"]+)"',
    "CITATION.cff": r"^version:\s*(\S+)",
}


def test_version_declarations_agree():
    root = Path(__file__).resolve().parents[1]
    for name, pattern in VERSION_DECLARATIONS.items():
        found = re.findall(pattern, (root / name).read_text(), re.MULTILINE)
        assert found == [repro.__version__], f"{name}: {found}"


def test_run_options_fields():
    actual = tuple(
        f.name for f in repro.RunOptions.__dataclass_fields__.values()
    )
    assert actual == ("recorder", "budget", "checkpoint", "resume", "parallel")


def test_parallel_config_fields():
    actual = tuple(
        f.name for f in repro.ParallelConfig.__dataclass_fields__.values()
    )
    assert actual == (
        "workers", "chunks_per_worker", "start_method", "max_crash_retries",
    )


def test_router_config_fields():
    # deployment settings only: the router's tuning values are constants
    from repro.service import RouterConfig

    actual = tuple(f.name for f in RouterConfig.__dataclass_fields__.values())
    assert actual == ("host", "port")


def test_serve_fleet_signature():
    from repro.service import serve_fleet

    actual = tuple(inspect.signature(serve_fleet).parameters)
    assert actual == ("host", "port", "fleet", "index_dir", "worker_args")


# ---------------------------------------------------------------------------
# Service-client surface: the typed op helpers and their outcomes are a
# contract too — the CLI, the smoke scripts and the chaos suite all
# consume them.
# ---------------------------------------------------------------------------

EXPECTED_CLIENT_INIT = (
    "self", "endpoint", "timeout_s", "max_retries", "backoff_base_s",
    "backoff_max_s", "jitter", "sleep", "rng",
)

EXPECTED_CLIENT_OPS = {
    "rpc": ("self", "op", "obj", "retry_connection_errors"),
    "query": ("self",),
    "build": ("self",),
    "profile": ("self",),
    "stats": ("self",),
    "update": ("self", "inserts", "deletes"),
}

EXPECTED_OUTCOME_PROPERTIES = {
    "ServiceOutcome": {
        "code", "ok", "error", "request_id", "graph_version", "rejected",
        "retry_after_s", "served_by", "ring_epoch",
    },
    "QueryOutcome": {"result", "cached", "coalesced", "query_time_s"},
    "ProfileOutcome": {"rows", "densest_k"},
    "UpdateOutcome": {
        "applied", "update", "invalidated_results", "retained_results",
    },
}


def test_service_client_init_signature():
    from repro.service import ServiceClient

    actual = tuple(inspect.signature(ServiceClient.__init__).parameters)
    assert actual == EXPECTED_CLIENT_INIT


def test_service_client_op_surface():
    from repro.service import ServiceClient

    for op, expected in EXPECTED_CLIENT_OPS.items():
        fn = getattr(ServiceClient, op)
        actual = tuple(
            name
            for name, p in inspect.signature(fn).parameters.items()
            if p.kind is not inspect.Parameter.VAR_KEYWORD
        )
        assert actual == expected, f"{op}: {actual} != {expected}"


def test_outcome_types_are_dicts_with_typed_properties():
    import repro.service as service

    for type_name, expected in EXPECTED_OUTCOME_PROPERTIES.items():
        outcome_cls = getattr(service, type_name)
        assert issubclass(outcome_cls, dict)  # raw access keeps working
        actual = {
            name
            for name in vars(outcome_cls)
            if isinstance(vars(outcome_cls)[name], property)
        }
        assert actual == expected, f"{type_name}: {actual} != {expected}"


def test_typed_helpers_return_outcomes():
    from repro.service import (
        ProfileOutcome,
        QueryOutcome,
        ServiceClient,
        UpdateOutcome,
    )

    hints = {
        "query": QueryOutcome,
        "profile": ProfileOutcome,
        "update": UpdateOutcome,
    }
    for op, outcome_cls in hints.items():
        signature = inspect.signature(getattr(ServiceClient, op))
        assert signature.return_annotation == outcome_cls.__name__


# ---------------------------------------------------------------------------
# options= is the one spelling of the run knobs, and it stays silent.
# ---------------------------------------------------------------------------


def test_options_spelling_does_not_warn():
    opts = repro.RunOptions(
        recorder=repro.MetricsRecorder(),
        budget=repro.RunBudget(wall_seconds=60.0),
        parallel=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        resolved = repro.RunOptions.resolve(opts)
    assert resolved == opts
