"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro.cli datasets
    python -m repro.cli build-index dataset:email -o email.sct
    python -m repro.cli query dataset:email -k 7 --method sctl*
    python -m repro.cli query graph.txt -k 4 --index graph.sct --method sctl*-exact
    python -m repro.cli query dataset:email -k 7 --metrics run.json --trace run.jsonl
    python -m repro.cli profile dataset:pokec --iterations 10
    python -m repro.cli stats dataset:email --json
    python -m repro.cli serve --port 8642

Machine-readable outputs (``query --json``, ``profile --json``,
``stats --json``) carry a versioned ``"schema"`` field
(``repro/result-v1``, ``repro/profile-v1``, ``repro/stats-v1``) that
``python -m repro.obs.validate --result`` checks.  ``serve`` runs the
:mod:`repro.service` daemon (see ``docs/service.md``).

Graph arguments accept either a path to an edge-list file or
``dataset:<name>`` for one of the bundled synthetic datasets.

The index/query/profile subcommands expose the ``repro.obs`` layer:
``--metrics`` prints a stage-breakdown table (or writes a JSON snapshot
when given a path) and ``--trace PATH`` writes the JSON-lines event log
that ``python -m repro.obs.validate`` checks.

The build-index/query subcommands expose the ``repro.resilience`` layer:
``--time-budget SECONDS`` arms a wall-clock budget (SIGINT/SIGTERM cancel
it cooperatively), ``--checkpoint DIR`` snapshots progress atomically and
``--resume`` restarts from those snapshots.  Exit codes: 0 success,
1 error, 2 usage or index/graph mismatch, 3 budget exhausted with nothing
usable, 4 budget exhausted but a valid best-so-far result was printed.

The build-index/query/profile subcommands also take ``--workers N`` to
shard the index build and the per-iteration path sweeps over a process
pool (``repro.parallel``); results stay byte-identical to serial runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Optional, Tuple

from . import densest_subgraph
from .analysis import extract_near_clique
from .bench import format_table
from .core import SCTIndex, top_dense_subgraphs
from .core.profile import density_profile
from .datasets import dataset_names, get_spec, load_dataset
from .errors import BudgetExhausted, ReproError
from .graph import Graph, read_edge_list
from .graph.stats import summarize
from .obs import NULL_RECORDER, MetricsRecorder, Recorder
from .options import RunOptions
from .registry import available_methods
from .resilience import NULL_BUDGET, Budget, RunBudget
from .results import PROFILE_SCHEMA, STATS_SCHEMA

__all__ = ["main", "build_parser"]

# Exit codes: 0 success, 1 error, 2 usage / input mismatch,
# EXIT_EXHAUSTED when a run budget expired with nothing usable,
# EXIT_PARTIAL when it expired but a valid best-so-far result was printed.
EXIT_EXHAUSTED = 3
EXIT_PARTIAL = 4


def _load_graph(spec: str) -> Graph:
    """Resolve a graph argument: ``dataset:<name>`` or an edge-list path."""
    if spec.startswith("dataset:"):
        return load_dataset(spec.split(":", 1)[1])
    return read_edge_list(spec)


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to a subcommand."""
    subparser.add_argument(
        "--metrics", nargs="?", const="-", metavar="PATH",
        help="collect stage metrics; print a summary table, or write a "
             "JSON snapshot when PATH is given",
    )
    subparser.add_argument(
        "--trace", metavar="PATH",
        help="write a JSON-lines event trace of the run to PATH",
    )


def _add_parallel_flag(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers`` flag to a subcommand."""
    subparser.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="shard the index build and path sweeps over N worker "
             "processes (results stay byte-identical to serial)",
    )


def _parallel_from(args: argparse.Namespace):
    """The ``parallel=`` value a subcommand's flags ask for."""
    return getattr(args, "workers", None)


def _add_resilience_flags(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared run-budget / checkpoint flags to a subcommand."""
    subparser.add_argument(
        "--time-budget", type=float, metavar="SECONDS", default=None,
        help="wall-clock budget; on expiry the run degrades to its best "
             "result so far instead of running to completion",
    )
    subparser.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="directory for periodic atomic state snapshots",
    )
    subparser.add_argument(
        "--resume", action="store_true",
        help="resume from the snapshots in --checkpoint DIR",
    )


def _budget_from(args: argparse.Namespace) -> Tuple[Budget, ContextManager]:
    """The budget a subcommand's flags ask for, plus its signal scope.

    With ``--time-budget`` a :class:`RunBudget` is armed and SIGINT/SIGTERM
    cancel it cooperatively (first signal degrades gracefully); without it
    the free :data:`NULL_BUDGET` is returned with a no-op scope.
    """
    seconds = getattr(args, "time_budget", None)
    if seconds is None:
        return NULL_BUDGET, nullcontext()
    budget = RunBudget(wall_seconds=seconds)
    return budget, budget.on_signal()


def _metrics_report(recorder: MetricsRecorder) -> str:
    """Human-readable table of everything an enabled recorder collected."""
    rows = []
    for name, value in sorted(recorder.counters.items()):
        rows.append(["counter", name, value])
    for name, value in sorted(recorder.gauges.items()):
        rows.append(["gauge", name, value])
    for path, (count, seconds) in sorted(recorder.span_totals().items()):
        rendered = f"{seconds:.3f}"
        if rendered == "0.000":  # sub-ms: don't misread as "never ran"
            rendered = "<0.001"
        rows.append(
            ["span", path, f"{rendered}s" + (f" x{count}" if count > 1 else "")]
        )
    return format_table(["kind", "name", "value"], rows, title="metrics")


@contextmanager
def _observability(args: argparse.Namespace) -> Iterator[Recorder]:
    """Build the recorder the subcommand's flags ask for.

    Yields :data:`NULL_RECORDER` when neither ``--metrics`` nor ``--trace``
    was given; otherwise yields a :class:`MetricsRecorder` and, on exit,
    closes the trace sink and prints or writes the metrics snapshot.
    """
    metrics = getattr(args, "metrics", None)
    trace = getattr(args, "trace", None)
    if metrics is None and trace is None:
        yield NULL_RECORDER
        return
    sink = open(trace, "w", encoding="utf-8") if trace else None
    recorder = MetricsRecorder(sink=sink)
    try:
        yield recorder
    finally:
        if sink is not None:
            sink.close()
        if metrics == "-":
            print(_metrics_report(recorder))
        elif metrics is not None:
            recorder.write_json(metrics)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        spec = get_spec(name)
        graph = load_dataset(name)
        rows.append([name, spec.paper_counterpart, graph.n, graph.m, spec.role])
    print(format_table(
        ["name", "paper counterpart", "|V|", "|E|", "role"], rows,
        title="bundled datasets",
    ))
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    budget, signal_scope = _budget_from(args)
    with _observability(args) as recorder, signal_scope:
        start = time.perf_counter()
        try:
            index = SCTIndex.build(
                graph, threshold=args.threshold,
                options=RunOptions(
                    recorder=recorder, budget=budget,
                    checkpoint=args.checkpoint, resume=args.resume,
                    parallel=_parallel_from(args),
                ),
            )
        except BudgetExhausted as exc:
            print(f"budget exhausted: {exc}", file=sys.stderr)
            if args.checkpoint:
                print(
                    f"partial build state saved under {args.checkpoint}; "
                    "rerun with --resume to continue",
                    file=sys.stderr,
                )
            return EXIT_EXHAUSTED
        elapsed = time.perf_counter() - start
        index.save(args.output)
    print(f"built {index!r} in {elapsed:.3f}s -> {args.output}")
    return 0


def _graph_request_fields(spec: str) -> dict:
    """The ``dataset``/``path`` request fields for a graph argument."""
    if spec.startswith("dataset:"):
        return {"dataset": spec.split(":", 1)[1]}
    return {"path": spec}


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """``query --endpoint``: ask a running daemon instead of computing.

    Retries/backoff (including 429 + Retry-After from admission control)
    live in :class:`~repro.service.ServiceClient`; envelope codes map
    onto the same exit codes the local path uses.
    """
    from .errors import ServiceUnavailable
    from .service import ServiceClient

    client = ServiceClient(
        args.endpoint,
        timeout_s=(args.time_budget or 30.0) + 30.0,
    )
    fields = dict(
        _graph_request_fields(args.graph),
        k=args.k, method=args.method, iterations=args.iterations,
        seed=args.seed,
    )
    if args.sample_size is not None:
        fields["sample_size"] = args.sample_size
    if args.time_budget is not None:
        fields["timeout_s"] = args.time_budget
    try:
        env = client.query(**fields)
    except ServiceUnavailable as exc:
        print(f"service unavailable: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    code = env.get("code", 1)
    if env.get("error"):
        print(f"error: {env['error']}", file=sys.stderr)
        return code if code in (2, EXIT_EXHAUSTED, EXIT_PARTIAL) else 1
    if args.json:
        print(json.dumps(env, indent=2))
    else:
        result = env.get("result", {})
        print(
            f"k={result.get('k')} density={result.get('density')} "
            f"size={len(result.get('vertices', []))} "
            f"(cached={env.get('cached')}, coalesced={env.get('coalesced')}, "
            f"{env.get('query_time_s', 0):.3f}s)"
        )
        if args.show_vertices:
            print(f"vertices: {result.get('vertices')}")
    return code


def _cmd_query(args: argparse.Namespace) -> int:
    if getattr(args, "endpoint", None):
        return _cmd_query_remote(args)
    graph = _load_graph(args.graph)
    index: Optional[SCTIndex] = None
    if args.index:
        index = SCTIndex.load(args.index)
        if index.n_vertices != graph.n:
            print(
                f"error: index covers {index.n_vertices} vertices but the "
                f"graph has {graph.n}",
                file=sys.stderr,
            )
            return 2
    budget, signal_scope = _budget_from(args)
    with _observability(args) as recorder, signal_scope:
        start = time.perf_counter()
        result = densest_subgraph(
            graph,
            args.k,
            method=args.method,
            iterations=args.iterations,
            index=index,
            sample_size=args.sample_size,
            seed=args.seed,
            options=RunOptions(
                recorder=recorder, budget=budget,
                checkpoint=args.checkpoint, resume=args.resume,
                parallel=_parallel_from(args),
            ),
        )
        elapsed = time.perf_counter() - start
        if args.json:
            payload = result.to_dict()
            payload["query_time_s"] = elapsed
            print(json.dumps(payload, indent=2))
        else:
            print(result.summary())
            if result.upper_bound is not None:
                print(
                    f"upper bound on optimal density: {result.upper_bound:.6f}"
                )
            print(f"query time: {elapsed:.3f}s")
            if args.show_vertices:
                print(f"vertices: {result.vertices}")
        if result.is_partial:
            if not result.valid:
                print(
                    f"budget exhausted at {result.stage or 'startup'} "
                    "before any usable result",
                    file=sys.stderr,
                )
                return EXIT_EXHAUSTED
            print(
                "budget exhausted: reported the best result achieved "
                f"within the budget ({result.reason})",
                file=sys.stderr,
            )
            return EXIT_PARTIAL
    return 0


def _parse_edge_flags(values, flag: str):
    """``--insert U,V`` occurrences as ``[u, v]`` pairs (or raise)."""
    from .errors import InvalidParameterError

    edges = []
    for value in values:
        parts = value.replace(",", " ").split()
        try:
            u, v = (int(part) for part in parts)
        except ValueError:
            raise InvalidParameterError(
                f"{flag} expects an edge as 'U,V', got {value!r}"
            ) from None
        edges.append([u, v])
    return edges


def _cmd_update(args: argparse.Namespace) -> int:
    """``update``: apply edge inserts/deletes through a running daemon.

    Updates mutate server state, so they are never retried on connection
    errors (the request may have been applied); admission rejections
    (429/503) are safe to retry and are.
    """
    from .errors import InvalidParameterError, ServiceUnavailable
    from .service import ServiceClient

    try:
        inserts = _parse_edge_flags(args.insert, "--insert")
        deletes = _parse_edge_flags(args.delete, "--delete")
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(
        args.endpoint,
        timeout_s=(args.time_budget or 30.0) + 30.0,
    )
    fields = dict(_graph_request_fields(args.graph))
    if args.method is not None:
        fields["method"] = args.method
    if args.time_budget is not None:
        fields["timeout_s"] = args.time_budget
    try:
        env = client.update(inserts=inserts, deletes=deletes, **fields)
    except ServiceUnavailable as exc:
        print(f"service unavailable: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    code = env.code
    if env.error:
        print(f"error: {env.error}", file=sys.stderr)
        return code if code in (2, EXIT_EXHAUSTED, EXIT_PARTIAL) else 1
    if args.json:
        print(json.dumps(env, indent=2))
        return code
    if not env.applied:
        print(
            "update not applied: the old index is still serving "
            f"({env.get('reason')})",
            file=sys.stderr,
        )
        return code
    summary = env.update
    print(
        f"applied +{summary.get('inserts', 0)}/-{summary.get('deletes', 0)} "
        f"edges, graph_version={env.graph_version} "
        f"(dirty {summary.get('dirty_roots', 0)}/{summary.get('n_roots', 0)} "
        f"roots, {env.invalidated_results} results invalidated, "
        f"{env.retained_results} retained, "
        f"{env.get('update_time_s', 0):.3f}s)"
    )
    return code


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    with _observability(args) as recorder:
        opts = RunOptions(recorder=recorder, parallel=_parallel_from(args))
        index = (
            SCTIndex.load(args.index) if args.index
            else SCTIndex.build(graph, options=opts)
        )
        profile = density_profile(
            index, iterations=args.iterations, options=opts
        )
        if args.json:
            payload = {
                "schema": PROFILE_SCHEMA,
                "k_max": index.max_clique_size,
                "densest_k": profile.densest_k(),
                "rows": [
                    {
                        "k": k,
                        "size": size,
                        "clique_count": count,
                        "density": density,
                    }
                    for k, size, count, density in profile.as_rows()
                ],
            }
            print(json.dumps(payload, indent=2))
            return 0
        rows = [
            [k, size, count, f"{density:.4f}"]
            for k, size, count, density in profile.as_rows()
        ]
        print(format_table(
            ["k", "|S|", "k-cliques", "density"], rows,
            title=f"density profile (k_max={index.max_clique_size})",
        ))
        print(f"best k by density: {profile.densest_k()}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    summary = summarize(graph)
    if args.json:
        payload = {"schema": STATS_SCHEMA}
        payload.update(summary.to_dict())
        if args.kmax:
            index = SCTIndex.build(graph)
            payload["k_max"] = index.max_clique_size
            payload["sct_tree_nodes"] = index.n_tree_nodes
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        ["vertices", summary.n],
        ["edges", summary.m],
        ["min / max degree", f"{summary.min_degree} / {summary.max_degree}"],
        ["mean degree", f"{summary.mean_degree:.2f}"],
        ["triangles", summary.triangles],
        ["average clustering", f"{summary.average_clustering:.4f}"],
        ["transitivity", f"{summary.transitivity:.4f}"],
        ["edge density", f"{summary.edge_density:.6f}"],
    ]
    if args.kmax:
        index = SCTIndex.build(graph)
        rows.append(["k_max (max clique size)", index.max_clique_size])
        rows.append(["SCT*-Index tree nodes", index.n_tree_nodes])
    print(format_table(["statistic", "value"], rows, title="graph statistics"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # lazy: the daemon pulls in threading/http machinery no other
    # subcommand needs
    if args.role == "router" or args.fleet is not None:
        from .service import serve_fleet

        # every non-routing serve flag is handed down to the spawned
        # workers verbatim, so a fleet worker is configured exactly
        # like a standalone daemon
        worker_args = []
        if args.cache_size != 4:
            worker_args += ["--cache-size", str(args.cache_size)]
        if args.result_cache_size != 128:
            worker_args += [
                "--result-cache-size", str(args.result_cache_size)
            ]
        if args.default_timeout is not None:
            worker_args += ["--default-timeout", str(args.default_timeout)]
        if args.max_concurrent is not None:
            worker_args += ["--max-concurrent", str(args.max_concurrent)]
        if args.max_queue != 16:
            worker_args += ["--max-queue", str(args.max_queue)]
        if args.workers is not None:
            worker_args += ["--workers", str(args.workers)]
        return serve_fleet(
            host=args.host,
            port=args.port,
            fleet=args.fleet if args.fleet is not None else 2,
            index_dir=args.index_dir,
            worker_args=worker_args,
        )

    from .service import serve_forever

    return serve_forever(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        result_cache_size=args.result_cache_size,
        default_timeout_s=args.default_timeout,
        workers=_parallel_from(args),
        trace_path=args.trace,
        index_dir=args.index_dir,
        access_log_path=args.access_log,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        worker_id=args.worker_id,
    )


def _cmd_near_clique(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    region = extract_near_clique(
        graph, args.k, exact=not args.approximate,
        iterations=args.iterations, seed=args.seed,
    )
    print(f"near-clique on {len(region.members)} vertices "
          f"(k={args.k}, density {region.density:.4f}, "
          f"completeness {region.completeness:.2%})")
    print(f"members: {region.members}")
    if region.missing_edges:
        shown = region.missing_edges[: args.max_predictions]
        print(f"top predicted edges ({len(shown)} of {len(region.missing_edges)}):")
        for u, v in shown:
            print(f"  {graph.label_of(u)} -- {graph.label_of(v)}")
    else:
        print("the region is a perfect clique — nothing to predict")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    regions = top_dense_subgraphs(
        graph, args.k, count=args.count, exact=not args.approximate,
        iterations=args.iterations, min_density=args.min_density,
        seed=args.seed,
    )
    if not regions:
        print("no dense regions found")
        return 0
    rows = [
        [i, r.size, r.clique_count, f"{r.density:.4f}"]
        for i, r in enumerate(regions, start=1)
    ]
    print(format_table(
        ["rank", "|S|", "k-cliques", "density"], rows,
        title=f"top dense regions (k={args.k})",
    ))
    if args.show_vertices:
        for i, region in enumerate(regions, start=1):
            print(f"#{i}: {region.vertices}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-clique densest subgraph detection (SCT*-Index)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the bundled synthetic datasets")

    build = sub.add_parser("build-index", help="build and save an SCT*-Index")
    build.add_argument("graph", help="edge-list path or dataset:<name>")
    build.add_argument("-o", "--output", required=True, help="output file")
    build.add_argument(
        "--threshold", type=int, default=0,
        help="partial SCT*-k'-Index threshold (0 = complete index)",
    )
    _add_obs_flags(build)
    _add_resilience_flags(build)
    _add_parallel_flag(build)

    query = sub.add_parser("query", help="find a k-clique densest subgraph")
    query.add_argument("graph", help="edge-list path or dataset:<name>")
    query.add_argument("-k", type=int, required=True, help="clique size")
    query.add_argument(
        "--method", default="sctl*",
        help="algorithm from the method registry: "
             + ", ".join(available_methods())
             + " (aliases like sctl-star work too; extend with "
             "repro.register_method)",
    )
    query.add_argument("--index", help="pre-built index file to reuse")
    query.add_argument("--iterations", type=int, default=10)
    query.add_argument("--sample-size", type=int, default=None)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--show-vertices", action="store_true",
        help="print the vertex ids of the reported subgraph",
    )
    query.add_argument(
        "--json", action="store_true",
        help="emit the result as a versioned repro/result-v1 JSON payload",
    )
    query.add_argument(
        "--endpoint", metavar="URL",
        help="send the query to a running daemon (e.g. "
             "http://127.0.0.1:8642) instead of computing locally; "
             "retries with backoff on 429/503",
    )
    _add_obs_flags(query)
    _add_resilience_flags(query)
    _add_parallel_flag(query)

    update = sub.add_parser(
        "update",
        help="apply edge inserts/deletes on a daemon (POST /v1/update)",
    )
    update.add_argument(
        "graph",
        help="edge-list path or dataset:<name>, as the daemon resolves it",
    )
    update.add_argument(
        "--endpoint", metavar="URL", required=True,
        help="daemon base URL, e.g. http://127.0.0.1:8642",
    )
    update.add_argument(
        "--insert", action="append", default=[], metavar="U,V",
        help="edge to insert (repeatable)",
    )
    update.add_argument(
        "--delete", action="append", default=[], metavar="U,V",
        help="edge to delete (repeatable)",
    )
    update.add_argument(
        "--method", default=None,
        help="reject up front unless this method supports incremental "
             "updates (see repro.methods_supporting('update'))",
    )
    update.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on exhaustion the daemon keeps the old "
             "index and answers code 4",
    )
    update.add_argument(
        "--json", action="store_true",
        help="emit the raw repro/service-v1 update envelope",
    )

    profile = sub.add_parser(
        "profile", help="densest subgraph for every k from one index"
    )
    profile.add_argument("graph", help="edge-list path or dataset:<name>")
    profile.add_argument("--index", help="pre-built index file to reuse")
    profile.add_argument("--iterations", type=int, default=10)
    profile.add_argument(
        "--json", action="store_true",
        help="emit the profile as a versioned repro/profile-v1 JSON payload",
    )
    _add_obs_flags(profile)
    _add_parallel_flag(profile)

    stats = sub.add_parser("stats", help="descriptive statistics of a graph")
    stats.add_argument("graph", help="edge-list path or dataset:<name>")
    stats.add_argument(
        "--kmax", action="store_true",
        help="also build the SCT*-Index and report k_max",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit the statistics as machine-readable JSON",
    )

    near = sub.add_parser(
        "near-clique",
        help="detect a near-clique and rank its missing edges",
    )
    near.add_argument("graph", help="edge-list path or dataset:<name>")
    near.add_argument("-k", type=int, required=True)
    near.add_argument("--approximate", action="store_true")
    near.add_argument("--iterations", type=int, default=10)
    near.add_argument("--seed", type=int, default=0)
    near.add_argument("--max-predictions", type=int, default=10)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived query daemon (repro.service)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port; 0 picks a free one and announces it (default 8642)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4,
        help="max SCTIndex objects held in the LRU cache (default 4)",
    )
    serve.add_argument(
        "--result-cache-size", type=int, default=128,
        help="max finished query results kept for reuse (default 128)",
    )
    serve.add_argument(
        "--default-timeout", type=float, default=None,
        help="per-request wall-clock budget in seconds when the client "
             "sends none (default: unlimited)",
    )
    serve.add_argument(
        "--trace", metavar="PATH",
        help="write the server-wide JSON-lines trace to PATH",
    )
    serve.add_argument(
        "--index-dir", metavar="DIR",
        help="persist built indices as format-2 files under DIR; cold "
             "starts mmap them back instead of rebuilding",
    )
    serve.add_argument(
        "--access-log", metavar="PATH",
        help="append one structured JSON line per request to PATH "
             "(op, code, request_id, duration, cold/warm)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=None, metavar="N",
        help="admission control: at most N requests per endpoint class "
             "(query vs cold build) run at once; beyond N + queue the "
             "server answers 429 + Retry-After (default: unlimited)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="bounded admission wait queue per endpoint class "
             "(default 16; only meaningful with --max-concurrent)",
    )
    serve.add_argument(
        "--role", choices=("router", "worker"), default="worker",
        help="fleet role: 'router' runs the consistent-hash front and "
             "spawns --fleet workers; 'worker' (default) runs one "
             "standalone daemon, optionally tagged with --worker-id",
    )
    serve.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help="run a fleet: spawn N loopback workers behind a router "
             "on --port (implies --role router; SIGTERM drains all)",
    )
    serve.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="tag this worker's envelopes with served_by=ID "
             "(set automatically for --fleet-spawned workers)",
    )
    _add_parallel_flag(serve)

    top = sub.add_parser(
        "top", help="extract the top-s disjoint dense regions"
    )
    top.add_argument("graph", help="edge-list path or dataset:<name>")
    top.add_argument("-k", type=int, required=True)
    top.add_argument("--count", type=int, default=3)
    top.add_argument("--approximate", action="store_true")
    top.add_argument("--iterations", type=int, default=10)
    top.add_argument("--min-density", type=float, default=0.0)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--show-vertices", action="store_true")

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "build-index": _cmd_build_index,
    "query": _cmd_query,
    "update": _cmd_update,
    "profile": _cmd_profile,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "near-clique": _cmd_near_clique,
    "top": _cmd_top,
}


def main(argv: Optional[list] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
