"""``index-build``: edge-list file to saved ``.sct2``, the build-index path.

Every repeat reads the pinned 20k-vertex power-law graph with
``read_edge_list``, builds its SCT*-Index with ``SCTIndex.build`` and
saves it, exactly what ``repro build-index`` does.  Nothing queries the
index in the timed phase, so a refinement change must leave this
workload flat while a build-kernel change moves it.

Untraced repeats make one ``SCTIndex.build(graph)`` call, timed as the
secondary operation.  Traced repeats call the layers one by one instead
(``core_decomposition``, ``build_ordered_view``, then
``SCTIndex.build(graph, view=...)``), so the layer spans of one repeat
tile it and add up to the primary operation plus tracing overhead.

End-to-end timings are scaled against the host's speed
(``common.HostSpeed``); the report also gives the wall-clock median, and
the tracing overhead and layer sums compare wall seconds.
"""

import os

from repro.cliques.ordered_view import build_ordered_view
from repro.core.sct import SCTIndex
from repro.graph.cores import core_decomposition
from repro.graph.io import read_edge_list

import inputs
import pins
from common import WORK, HostSpeed, clock, median, peak_rss_mb

SETUP_REPEATS = 5


def run(seed, seconds, tracer, out):
    del seed  # the input is pinned; every seed repeats the same builds
    path = inputs.ensure("powerlaw-20000")
    os.makedirs(WORK, exist_ok=True)
    target = os.path.join(WORK, f"index-build-{os.getpid()}.sct2")

    primary, secondary, wall, traced, nodes = [], [], [], [], set()
    layers = {}
    index = None
    with HostSpeed() as speed:
        setups = [speed.timed(read_edge_list, path)[1]
                  for _ in range(SETUP_REPEATS)]
        deadline = clock() + seconds
        repeat = 0
        # a traced run alternates untraced and traced operations: do both
        least = 2 if tracer.enabled else 1
        while repeat < least or clock() < deadline:
            out.attempted += 1
            index = None  # drop the previous index before building the next
            try:
                if tracer.enabled and repeat % 2:
                    index, seconds_taken = _traced_repeat(
                        tracer, repeat, path, target, layers
                    )
                    traced.append(seconds_taken)
                else:
                    index, whole, build = _repeat(speed, path, target)
                    wall.append(whole[0])
                    primary.append(whole[1])
                    secondary.append(build[1])
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out.fail(f"repeat {repeat}: {exc!r}")
            else:
                nodes.add(index.n_tree_nodes)
            repeat += 1
    rss = peak_rss_mb()

    if index is not None:
        _check(index, target, nodes, out)
    file_mb = os.path.getsize(target) / 2**20 if os.path.exists(target) else 0
    if os.path.exists(target):
        os.remove(target)

    out.metrics.update({
        "setup_s": median(setups),
        "primary_p50_s": median(primary),
        "secondary_p50_s": median(secondary),
        "peak_rss_mb": rss,
    })
    out.note("build_s", median(primary), "s")
    out.note("build_wall_s", median(wall), "s")
    out.note("sct_build_s", median(secondary), "s")
    if tracer.enabled:
        build_s = median(layers.get("core.sct.build", ()))
        n_nodes = max(nodes) if nodes else 0
        out.metrics.update({
            "graph.io.read_s": median(layers.get("graph.io.read", ())),
            "graph.cores.decompose_s":
                median(layers.get("graph.cores.decompose", ())),
            "cliques.ordered_view.build_s":
                median(layers.get("cliques.ordered_view.build", ())),
            "core.sct.build_s": build_s,
            "core.sct.nodes": n_nodes,
            "core.sct.nodes_per_s": n_nodes / build_s if build_s else 0.0,
            "core.sct.save_s": median(layers.get("core.sct.save", ())),
            "core.sct.file_mb": file_mb,
            "obs.tracing_overhead":
                median(traced) / median(wall) if traced else 0.0,
        })
        layer_sum = sum(median(v) for v in layers.values())
        out.note("layer_sum_s", layer_sum, "s")
        out.note("layer_sum_over_build", layer_sum / median(wall), "ratio")


def _repeat(speed, path, target):
    """One untraced repeat: ``(index, file-to-.sct2, SCTIndex.build)``,
    each time a ``(wall s, scaled s)`` pair from ``speed``."""
    start = speed.mark()
    graph = read_edge_list(path)
    built = speed.mark()
    index = SCTIndex.build(graph)
    build = speed.since(built)
    index.save(target)
    return index, speed.since(start), build


def _traced_repeat(tracer, repeat, path, target, layers):
    rid = f"repeat-{repeat}"
    with tracer.span("index-build/repeat", request_id=rid) as whole:
        _, index, spans = traced_build(tracer, path, rid)
        with tracer.span("core.sct.save", request_id=rid) as save:
            index.save(target)
    for record in spans + [save]:
        layers.setdefault(record["name"], []).append(record["seconds"])
    return index, whole["seconds"]


def traced_build(tracer, path, rid=None):
    """Edge list to index through the layers one by one, each in a span:
    read, core decomposition, ordered view, ``SCTIndex.build(view=...)``.

    Returns ``(graph, index, span records)``.
    """
    spans = []
    with tracer.span("graph.io.read", request_id=rid) as span:
        graph = read_edge_list(path)
    spans.append(span)
    with tracer.span("graph.cores.decompose", request_id=rid) as span:
        decomposition = core_decomposition(graph)
    spans.append(span)
    with tracer.span("cliques.ordered_view.build", request_id=rid) as span:
        view = build_ordered_view(graph, decomposition)
    spans.append(span)
    with tracer.span("core.sct.build", request_id=rid) as span:
        index = SCTIndex.build(graph, view=view)
    spans.append(span)
    return graph, index, spans


def _check(index, target, nodes, out):
    """Clique counts off the index equal the independent KCList counts,
    every repeat built the same tree, and the saved file reads back."""
    out.check(len(nodes) == 1, f"repeats built different trees: {nodes}")
    for k, expected in sorted(pins.KCLIST_COUNTS.items()):
        got = index.count_k_cliques(k)
        out.check(got == expected,
                  f"count_k_cliques({k}) = {got}, KCList pinned {expected}")
    loaded = SCTIndex.load(target)
    try:
        out.check(loaded.n_tree_nodes == index.n_tree_nodes,
                  "saved index reloads with a different tree size")
        k, expected = min(pins.KCLIST_COUNTS.items())
        out.check(loaded.count_k_cliques(k) == expected,
                  f"saved index answers a wrong {k}-clique count")
    finally:
        loaded.close()
