"""The SCT*-Index build pinned against saved files, and against KCList and
Bron–Kerbosch on an input that uses both row sources.

The parity suites compare build modes with each other; the SHA-256 pins
here compare the tree with the one the n-bit adjacency kernel built, so a
change of pivot tie-break or node order in any row source shows up even
when every build mode changes alike.
"""

import hashlib

import pytest

from repro import RunOptions
from repro.cliques.kclist import count_k_cliques
from repro.cliques.maximal import max_clique_size
from repro.cliques.ordered_view import build_ordered_view
from repro.core import SCTIndex
from repro.graph.generators import gnm_graph, planted_clique_graph, powerlaw_cluster_graph
from repro.parallel import ParallelConfig

GOLDEN = {
    "gnm": (
        lambda: gnm_graph(3000, 9000, seed=1),
        "a7076303a250ceed4ce6d5c3607193269e30d69376c53c227a7409a063021a78",
    ),
    "planted": (
        lambda: planted_clique_graph(3000, 150, 0.002, seed=2),
        "f50dc89abeccd244c522d9dc4159d4090b5e609927ecacabf03360a90f2cdb55",
    ),
    "powerlaw": (
        lambda: powerlaw_cluster_graph(4000, 8, 0.6, seed=3),
        "d35a36c8e642712e4f89b2d6f1bbd1c6830d1dfbd725a3d7c4e131a4a25e467a",
    ),
}


@pytest.fixture(scope="module")
def planted():
    graph = planted_clique_graph(3000, 150, 0.002, seed=2)
    return graph, SCTIndex.build(graph)


@pytest.fixture(scope="module")
def planted_small():
    graph = planted_clique_graph(600, 40, 0.01, seed=3)
    return graph, SCTIndex.build(graph)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_saved_index_matches_golden_sha256(name, tmp_path):
    make, digest = GOLDEN[name]
    path = tmp_path / "index.sct2"
    SCTIndex.build(make()).save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_parallel_build_matches_golden_sha256(tmp_path):
    # workers get the view without its graph: local rows and the dense
    # block both come from the out-lists alone
    make, digest = GOLDEN["planted"]
    path = tmp_path / "index.sct2"
    options = RunOptions(parallel=ParallelConfig(workers=2))
    SCTIndex.build(make(), options=options).save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fixture", ["planted", "planted_small"])
def test_planted_inputs_use_both_row_sources(fixture, request):
    graph, _ = request.getfixturevalue(fixture)
    view = build_ordered_view(graph)
    in_block = sum(map(view.uses_block, range(graph.n)))
    assert 0 < in_block < graph.n


# KCList walks every (k-1)-clique: past k = 4 the 150-clique takes minutes
@pytest.mark.parametrize("k", [3, 4])
def test_kclist_counts_equal_the_index(planted, k):
    graph, index = planted
    assert count_k_cliques(graph, k) == index.count_k_cliques(k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_kclist_counts_equal_the_index_small(planted_small, k):
    graph, index = planted_small
    assert count_k_cliques(graph, k) == index.count_k_cliques(k)


@pytest.mark.parametrize("fixture, size", [("planted", 150), ("planted_small", 40)])
def test_bron_kerbosch_max_clique_equals_the_index(fixture, size, request):
    graph, index = request.getfixturevalue(fixture)
    assert max_clique_size(graph) == index.max_clique_size == size
