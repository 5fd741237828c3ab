"""Pinned answers the workloads check against, and how they were made.

``python3 perfbench/pins.py`` recomputes every value from scratch with
independent code paths and prints them; paste the output here only
after a deliberate change of a workload's input.

* ``KCLIST_COUNTS`` — k-clique counts of ``powerlaw-20000`` from the
  KCList counter in ``repro.cliques.kclist``, which shares no code with
  the SCT*-Index the ``index-build`` workload checks against them.
* ``OPTIMA`` — the k-clique densest-subgraph density of
  ``community-3000`` for each k of the ``query-refine`` profile, as a
  ``(numerator, denominator)`` pair.  Each comes from SCTL*-Exact and is
  certified with ``verify_result(check_optimality=True)``, a min-cut
  over every k-clique of the graph.
* ``UPDATE_EDGES`` — for each ``fleet-serve`` graph, the edge its
  updates delete and re-insert, in the vertex ids ``read_edge_list``
  assigns: the first edge, in a fixed shuffle of the edges inside the
  graph's SCTL* answer at the fleet's (k, T), whose delete changes that
  answer and whose delete and re-insert each leave under 5% of the root
  subtrees dirty.  Changing the answer means a cached read served stale
  after an update differs from the offline run.  Update cost is bimodal
  by edge (a few dirty subtrees or most of them), so a mix of edges
  would put the median update between the two modes.
"""

import os
import random
import sys

KCLIST_COUNTS = {3: 162397, 4: 14543, 5: 3133}

OPTIMA = {5: (225, 8), 6: (85, 7), 7: (25, 7), 8: (1, 2)}

UPDATE_EDGES = {"fleet-a": (46, 272), "fleet-b": (768, 1016)}


def _recompute():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import inputs

    sys.path.insert(0, os.path.join(inputs.ROOT, "src"))
    from repro import densest_subgraph
    from repro.cliques.kclist import count_k_cliques
    from repro.core.exact import sctl_star_exact
    from repro.core.sct import SCTIndex
    from repro.core.update import apply_edge_updates, compute_update
    from repro.core.validation import verify_result
    from repro.graph.io import read_edge_list

    for name in inputs.INPUTS:
        path = os.path.join(inputs.ROOT, inputs.ensure(name, check=False))
        print(f"sha256 {name} {inputs.sha256_of(path)}", flush=True)

    graph = read_edge_list(
        os.path.join(inputs.ROOT, inputs.relpath("powerlaw-20000"))
    )
    counts = {k: count_k_cliques(graph, k) for k in (3, 4, 5)}
    print(f"KCLIST_COUNTS = {counts}", flush=True)

    graph = read_edge_list(
        os.path.join(inputs.ROOT, inputs.relpath("community-3000"))
    )
    index = SCTIndex.build(graph)
    optima = {}
    for k in (5, 6, 7, 8):
        result = sctl_star_exact(graph, k, index=index)
        report = verify_result(graph, result, check_optimality=True)
        if not (result.exact and report.ok and report.optimality_checked):
            raise SystemExit(f"k={k}: optimum not certified: {report.problems}")
        density = result.density_fraction
        optima[k] = (density.numerator, density.denominator)
        print(f"k={k} optimum {density} certified", flush=True)
    print(f"OPTIMA = {optima}", flush=True)

    import fleet_serve

    def answer(graph):
        result = densest_subgraph(graph, method="sctl*", **fleet_serve.QUERY)
        return sorted(result.vertices), result.clique_count

    edges = {}
    for name in fleet_serve.GRAPHS:
        graph = read_edge_list(os.path.join(inputs.ROOT, inputs.relpath(name)))
        index = SCTIndex.build(graph)
        before = answer(graph)
        inside = set(before[0])
        candidates = sorted(
            e for e in graph.edges() if e[0] in inside and e[1] in inside
        )
        random.Random(f"edges/{name}").shuffle(candidates)
        for edge in candidates:
            deleted = compute_update(index, graph, (), [edge])
            graph_without, _, _ = apply_edge_updates(graph, (), [edge])
            reinserted = compute_update(
                SCTIndex.build(graph_without), graph_without, [edge], ()
            )
            small = max(deleted.dirty_fraction, reinserted.dirty_fraction)
            if small < 0.05 and answer(graph_without) != before:
                edges[name] = edge
                break
    print(f"UPDATE_EDGES = {edges}")


if __name__ == "__main__":
    _recompute()
