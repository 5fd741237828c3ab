"""Graph reductions driven by the SCT*-Index (§5.1 of the paper).

Two reductions limit how much of the graph the weight-refinement loop has
to touch:

* **Clique-connectivity** — :func:`kp_computation` (Algorithm 3) builds the
  k-clique-isolating partition by union-finding the vertices of every
  root-to-leaf path (all cliques of one path share its holds, so the whole
  path lands in one partition).  :func:`partition_density_bounds` then
  derives the Lemma 3 upper bound ``max_v |C_k(v, G)| / k`` per partition;
  partitions whose bound is dominated by an achieved density can be
  discarded wholesale.
* **Clique-engagement** — Lemma 4: once a density ``rho'`` has been
  *achieved* by some subgraph, no vertex with fewer than ``ceil(rho')``
  k-cliques can be in the optimal solution.  :func:`engagement_threshold`
  converts a rational density into that integer cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

from ..graph.disjoint_set import DisjointSet
from ..obs import NULL_RECORDER, Recorder
from ..options import RunOptions
from .sct import SCTIndex, SCTPath

__all__ = [
    "KCliquePartition",
    "kp_computation",
    "partition_density_bounds",
    "engagement_threshold",
]


@dataclass
class KCliquePartition:
    """A k-clique-isolating partition of the vertex set.

    ``partition_of[v]`` is the representative id of the partition holding
    ``v``.  Vertices on no valid path (zero k-cliques) stay singletons.
    """

    partition_of: List[int]

    def groups(self) -> Dict[int, List[int]]:
        """Mapping representative -> sorted member list."""
        out: Dict[int, List[int]] = {}
        for v, root in enumerate(self.partition_of):
            out.setdefault(root, []).append(v)
        return out

    @property
    def n_partitions(self) -> int:
        """Number of distinct partitions (singletons included)."""
        return len(set(self.partition_of))


def kp_computation(
    index: SCTIndex,
    k: int,
    paths: Optional[Iterable[SCTPath]] = None,
    options: Optional[RunOptions] = None,
) -> KCliquePartition:
    """Compute the k-clique-isolating partition (Algorithm 3).

    Each root-to-leaf path that contains at least one k-clique has all its
    vertices merged into one set; union-by-rank and path compression make
    the sweep effectively linear in total path length.

    Parameters
    ----------
    index:
        The SCT*-Index of the graph.
    k:
        Clique size.
    paths:
        Pre-collected valid paths to reuse (else streamed off the index in
        a single sweep — no path list is materialised).
    options:
        A :class:`~repro.options.RunOptions`; only the recorder and
        parallel knobs apply here.  An enabled recorder gets a
        ``reductions/kp_computation`` span plus ``reductions/paths_merged``
        and ``reductions/partitions`` counters.  With workers the path
        sweep is sharded across a process pool, but the unions are
        applied in the serial path order, so the representatives are
        identical.
    """
    opts = RunOptions.resolve(options)
    recorder = opts.recorder
    engine = None
    if paths is None and opts.parallel is not None and opts.parallel.enabled:
        from ..parallel.engine import PathShardEngine

        candidate = PathShardEngine(index, opts.parallel, recorder=recorder)
        if candidate.has_chunks:
            engine = candidate
            paths = candidate.path_view(k)
        else:
            candidate.close()
    try:
        with recorder.span("reductions/kp_computation"):
            ds = DisjointSet(index.n_vertices)
            if paths is None:
                paths = index.iter_paths(k)
            if recorder.enabled:
                n_paths = 0
                for path in paths:
                    ds.union_many(path.vertices)
                    n_paths += 1
                recorder.counter("reductions/paths_merged", n_paths)
            else:
                for path in paths:
                    ds.union_many(path.vertices)
            partition_of = [ds.find(v) for v in range(index.n_vertices)]
            if recorder.enabled:
                recorder.counter("reductions/partitions", len(set(partition_of)))
            return KCliquePartition(partition_of=partition_of)
    finally:
        if engine is not None:
            engine.close()


def partition_density_bounds(
    partition: KCliquePartition,
    engagement: Sequence[int],
    k: int,
    recorder: Recorder = NULL_RECORDER,
) -> Dict[int, Fraction]:
    """Per-partition upper bound on the maximum k-clique density (Lemma 3).

    The density of any subgraph of partition ``KP`` is at most
    ``max_{v in KP} |C_k(v, G)| / k``.

    Parameters
    ----------
    partition:
        Output of :func:`kp_computation`.
    engagement:
        Global per-vertex k-clique counts ``|C_k(v, G)|``.
    k:
        Clique size.
    recorder:
        Observability hook: records the number of bounded partitions and
        the largest Lemma 3 bound.
    """
    best: Dict[int, int] = {}
    for v, root in enumerate(partition.partition_of):
        count = engagement[v]
        if count > best.get(root, -1):
            best[root] = count
    bounds = {root: Fraction(count, k) for root, count in best.items()}
    if recorder.enabled and bounds:
        recorder.counter("reductions/partitions_bounded", len(bounds))
        recorder.gauge(
            "reductions/max_partition_bound", float(max(bounds.values()))
        )
    return bounds


def engagement_threshold(density: Fraction) -> int:
    """``ceil(density)`` — the Lemma 4 engagement cutoff for a density."""
    return -((-density.numerator) // density.denominator)
