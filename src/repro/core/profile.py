"""Density profiles: densest subgraphs for every k from one index.

One advantage the paper claims for the SCT*-Index is that it is built
*once* and then serves any clique size (Table 3's "total query time for
all k" column).  This module packages that workflow: sweep every
meaningful ``k`` and return the per-k densest-subgraph results, reusing
the index and its collected paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..errors import InvalidParameterError
from ..options import RunOptions
from ..results import DenseSubgraphResult
from .sct import SCTIndex
from .sctl_star import sctl_star

__all__ = ["DensityProfile", "density_profile"]


@dataclass
class DensityProfile:
    """Per-k densest-subgraph results over a range of clique sizes."""

    results: Dict[int, DenseSubgraphResult]

    def k_values(self) -> List[int]:
        """The clique sizes covered, ascending."""
        return sorted(self.results)

    def densest_k(self) -> int:
        """The k with the highest achieved density (ties -> smallest k)."""
        return min(
            self.results,
            key=lambda k: (-self.results[k].density_fraction, k),
        )

    def as_rows(self) -> List[List]:
        """Tabular view: ``[k, |S|, clique_count, density]`` per k."""
        return [
            [k, r.size, r.clique_count, float(r.density_fraction)]
            for k, r in sorted(self.results.items())
        ]


def density_profile(
    index: SCTIndex,
    k_values: Optional[Iterable[int]] = None,
    iterations: int = 10,
    options: Optional[RunOptions] = None,
) -> DensityProfile:
    """Run SCTL* for every requested k on one index.

    Parameters
    ----------
    index:
        The SCT*-Index (complete, or partial with every requested ``k``
        at or above its threshold).
    k_values:
        Clique sizes to query; defaults to every k from
        ``max(3, threshold)`` up to the index's maximum clique size.
    iterations:
        SCTL* refinement passes per k.
    options:
        A :class:`~repro.options.RunOptions`; the recorder, budget and
        parallel knobs are forwarded into each per-k SCTL* run, and each
        k's run lands under a ``profile/k/<k>`` span of the recorder.
        The checkpoint/resume knobs are stripped — the per-k runs would
        otherwise overwrite each other's snapshots.
    """
    opts = RunOptions.resolve(options)
    run_opts = opts.replace(checkpoint=None, resume=False)
    recorder = opts.recorder
    if k_values is None:
        lo = max(3, index.threshold)
        k_values = range(lo, index.max_clique_size + 1)
    results: Dict[int, DenseSubgraphResult] = {}
    for k in k_values:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        with recorder.span(f"profile/k/{k}"):
            results[k] = sctl_star(
                index, k, iterations=iterations, options=run_opts
            )
    return DensityProfile(results=results)
