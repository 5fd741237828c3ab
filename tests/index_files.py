"""Checked-in v1 index files, and the v2 bytes an index saves as.

The library writes only format v2, and reads v1 too
(``docs/index-format.md``).  The v1 oracle is the files under
``tests/data/v1/``: each ``<name>.sct1`` was written once by the v1
writer of commit 67bd642 (``SCTIndex.save`` with its format keyword set
to 1; the last commit that had one) from the graph :data:`V1_GRAPHS`
names it by, built at that entry's threshold.  Do not regenerate them:
no v1 writer is left, and a file made any other way would test its
maker instead of the format that old files on disk are in.
"""

import io
from pathlib import Path

from repro.core import SCTIndex
from repro.graph import Graph, gnp_graph, planted_clique_graph, relaxed_caveman_graph

V1_DIR = Path(__file__).resolve().parent / "data" / "v1"

# name -> (graph factory, build threshold)
V1_GRAPHS = {
    # the cross-backing parity suite (tests/test_index_parity.py)
    "parity-caveman": (lambda: relaxed_caveman_graph(7, 6, 0.12, seed=3), 0),
    "parity-planted": (lambda: planted_clique_graph(60, 9, 0.08, seed=5), 0),
    "parity-gnp-0": (lambda: gnp_graph(34, 0.3, seed=0), 0),
    "parity-gnp-1": (lambda: gnp_graph(34, 0.3, seed=1), 0),
    "parity-gnp-2": (lambda: gnp_graph(34, 0.3, seed=2), 0),
    "parity-gnp-3": (lambda: gnp_graph(34, 0.3, seed=3), 0),
    # round trips, dispatch and load validation (test_sct_serialization.py)
    "caveman-6x5": (lambda: relaxed_caveman_graph(6, 5, 0.1, seed=1), 0),
    "caveman-5x6": (lambda: relaxed_caveman_graph(5, 6, 0.15, seed=9), 0),
    "gnp-12-s2": (lambda: gnp_graph(12, 0.5, seed=2), 0),
    "gnp-14-s3-t4": (lambda: gnp_graph(14, 0.4, seed=3), 4),
    "gnp-10-s5": (lambda: gnp_graph(10, 0.5, seed=5), 0),
    "gnp-8-s4": (lambda: gnp_graph(8, 0.5, seed=4), 0),
    "edgeless-3": (lambda: Graph(3), 0),
    "single-vertex": (lambda: Graph(1), 0),
    "no-vertices": (lambda: Graph(0), 0),
    # text-level corruptions (test_failure_injection.py)
    "gnp-12-s1": (lambda: gnp_graph(12, 0.5, seed=1), 0),
}


def v1_file(name: str) -> Path:
    """The checked-in v1 file of graph ``name``."""
    return V1_DIR / f"{name}.sct1"


def built_index(name: str) -> SCTIndex:
    """``SCTIndex.build`` of graph ``name`` at its threshold."""
    factory, threshold = V1_GRAPHS[name]
    return SCTIndex.build(factory(), threshold=threshold)


def v2_bytes(index: SCTIndex) -> bytes:
    """The bytes ``index.save`` writes, without touching the disk."""
    buffer = io.BytesIO()
    index._write_v2(buffer)
    return buffer.getvalue()
