"""Descriptive graph statistics.

Summary measures used by the dataset registry, the CLI and the
experiments when characterising inputs: degree profile, triangle-based
clustering, edge density.  Triangle counts intersect the two endpoints'
neighbour sets once per edge, in ``O(n + m)`` memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .graph import Graph

__all__ = [
    "GraphSummary",
    "degree_histogram",
    "triangle_counts",
    "local_clustering",
    "average_clustering",
    "transitivity",
    "edge_density",
    "summarize",
]


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Mapping degree -> number of vertices with that degree."""
    histogram: Dict[int, int] = {}
    for d in graph.degrees():
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def triangle_counts(graph: Graph) -> List[int]:
    """``result[v]`` = number of triangles through vertex ``v``."""
    nbrs = graph.neighbors
    counts = [0] * graph.n
    for u, v in graph.edges():
        common = len(nbrs(u) & nbrs(v))
        if common:
            counts[u] += common
            counts[v] += common
    # every triangle was counted twice at each corner (once per incident edge)
    return [c // 2 for c in counts]


def local_clustering(graph: Graph) -> List[float]:
    """Watts–Strogatz local clustering coefficient per vertex."""
    triangles = triangle_counts(graph)
    coefficients = []
    for v in graph.vertices():
        d = graph.degree(v)
        possible = d * (d - 1) // 2
        coefficients.append(triangles[v] / possible if possible else 0.0)
    return coefficients


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient (0 for an empty graph)."""
    if graph.n == 0:
        return 0.0
    coefficients = local_clustering(graph)
    return sum(coefficients) / graph.n


def transitivity(graph: Graph) -> float:
    """Global clustering: ``3 * triangles / open-or-closed wedges``."""
    triangles = sum(triangle_counts(graph)) // 3
    wedges = sum(d * (d - 1) // 2 for d in graph.degrees())
    if wedges == 0:
        return 0.0
    return 3 * triangles / wedges


def edge_density(graph: Graph) -> float:
    """``m / C(n, 2)`` (0 for graphs with fewer than two vertices)."""
    if graph.n < 2:
        return 0.0
    return graph.m / (graph.n * (graph.n - 1) / 2)


@dataclass(frozen=True)
class GraphSummary:
    """One-stop descriptive summary of a graph."""

    n: int
    m: int
    min_degree: int
    max_degree: int
    mean_degree: float
    triangles: int
    average_clustering: float
    transitivity: float
    edge_density: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping of every summary field (full precision)."""
        return {
            "vertices": self.n,
            "edges": self.m,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "triangles": self.triangles,
            "average_clustering": self.average_clustering,
            "transitivity": self.transitivity,
            "edge_density": self.edge_density,
        }

    def as_row(self) -> List:
        """Flat row for table rendering."""
        return [
            self.n,
            self.m,
            self.min_degree,
            self.max_degree,
            f"{self.mean_degree:.2f}",
            self.triangles,
            f"{self.average_clustering:.3f}",
            f"{self.transitivity:.3f}",
            f"{self.edge_density:.4f}",
        ]


def summarize(graph: Graph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    degrees = graph.degrees()
    return GraphSummary(
        n=graph.n,
        m=graph.m,
        min_degree=min(degrees, default=0),
        max_degree=max(degrees, default=0),
        mean_degree=(2 * graph.m / graph.n) if graph.n else 0.0,
        triangles=sum(triangle_counts(graph)) // 3,
        average_clustering=average_clustering(graph),
        transitivity=transitivity(graph),
        edge_density=edge_density(graph),
    )
