"""Cross-representation parity: every index backing answers identically.

The flat-array rewrite gives an :class:`SCTIndex` four lives — built in
memory, read from a legacy v1 text file (the checked-in ones of
``tests/index_files.py``), mmap-loaded from the binary v2 format, and
reconstructed zero-copy from a shared-memory broadcast inside a worker.
These tests pin the contract that none of those is observable through
the query API: counts, paths, traversal sizes and SCTL* densest-subgraph
results agree exactly, across random graphs and the deep planted-clique
instance that exceeds the recursion limit.
"""

import sys
from math import comb

import pytest

from repro import densest_subgraph
from repro.core import SCTIndex
from repro.graph import planted_clique_graph
from repro.parallel.engine import _attach_index, _release_shm, _share_index

from .index_files import V1_GRAPHS, v1_file

K_RANGE = (3, 4, 5)


def _close_quietly(handle):
    try:
        handle.close()
    except (BufferError, FileNotFoundError, ValueError):
        pass


def _make_variants(index, v1_path, tmp_path):
    """All four backings of ``index``, plus the handles to tear down."""
    v2_path = tmp_path / "index-v2.sct2"
    index.save(v2_path)
    shm, meta = _share_index(index)
    attached, attached_shm = _attach_index(meta)
    variants = {
        "built": index,
        "v1": SCTIndex.load(v1_path),
        "v2-mmap": SCTIndex.load(v2_path),
        "shared-memory": attached,
    }
    handles = [attached_shm, shm]
    return variants, handles, shm


# the cases, each with a checked-in v1 file named "parity-<case>"
CASES = sorted(
    name[len("parity-"):] for name in V1_GRAPHS if name.startswith("parity-")
)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return request.param


@pytest.fixture(scope="module")
def graph(case):
    factory, _ = V1_GRAPHS[f"parity-{case}"]
    return factory()


@pytest.fixture()
def variants(case, graph, tmp_path):
    built, handles, owner_shm = _make_variants(
        SCTIndex.build(graph), v1_file(f"parity-{case}"), tmp_path
    )
    yield built
    for index in built.values():
        index.close()
    for handle in handles:
        _close_quietly(handle)
    _release_shm(owner_shm)


class TestQueryParity:
    def test_backings_are_distinct(self, variants):
        assert variants["built"].backing == "memory"
        assert variants["v1"].backing == "memory"
        assert variants["v2-mmap"].backing == "mmap"
        assert variants["shared-memory"].backing == "shared_memory"

    def test_counts_and_paths_agree(self, variants):
        reference = variants["built"]
        for name, other in variants.items():
            assert other.n_vertices == reference.n_vertices, name
            assert other.max_clique_size == reference.max_clique_size, name
            assert other.collect_paths() == reference.collect_paths(), name
            for k in K_RANGE:
                if k > reference.max_clique_size:
                    continue
                assert (
                    other.count_k_cliques(k) == reference.count_k_cliques(k)
                ), (name, k)
                assert (
                    other.traversal_node_count(k)
                    == reference.traversal_node_count(k)
                ), (name, k)
                assert other.collect_paths(k) == reference.collect_paths(k), (
                    name,
                    k,
                )

    def test_densest_subgraph_agrees(self, graph, variants):
        for k in K_RANGE:
            if k > variants["built"].max_clique_size:
                continue
            results = {
                name: densest_subgraph(
                    graph, k, method="sctl*", iterations=4, index=idx
                )
                for name, idx in variants.items()
            }
            reference = results["built"]
            assert reference.valid
            for name, result in results.items():
                # DenseSubgraphResult equality ignores timings/stats, so
                # this compares vertices, clique_count and density exactly
                assert result == reference, (name, k)

    def test_statistics_agree(self, variants):
        reference = variants["built"].statistics()
        for name, other in variants.items():
            assert other.statistics() == reference, name


class TestDeepCliqueParity:
    """The n=1200 planted-clique regime the paper targets.

    One shared class-scoped build (the expensive part); the zero-copy
    backings must carry the ~1150-deep tree through without truncation.
    """

    CLIQUE = 1150
    N = 1200

    @pytest.fixture(scope="class")
    def deep_index(self):
        assert self.CLIQUE > sys.getrecursionlimit()
        graph = planted_clique_graph(self.N, self.CLIQUE, 0.001, seed=7)
        return SCTIndex.build(graph)

    def test_v2_round_trip_preserves_deep_tree(self, deep_index, tmp_path):
        path = tmp_path / "deep.sct2"
        deep_index.save(path)
        loaded = SCTIndex.load(path)
        try:
            assert loaded.backing == "mmap"
            assert loaded.max_clique_size == self.CLIQUE
            k = self.CLIQUE - 2
            assert loaded.count_k_cliques(k) == comb(self.CLIQUE, k)
            assert (
                loaded.traversal_node_count(k)
                == deep_index.traversal_node_count(k)
            )
            assert loaded.a_maximum_clique() == deep_index.a_maximum_clique()
        finally:
            loaded.close()

    def test_shared_memory_preserves_deep_tree(self, deep_index):
        shm, meta = _share_index(deep_index)
        attached, attached_shm = _attach_index(meta)
        try:
            assert attached.backing == "shared_memory"
            assert attached.max_clique_size == self.CLIQUE
            k = self.CLIQUE - 1
            assert attached.count_k_cliques(k) == deep_index.count_k_cliques(k)
        finally:
            attached.close()
            _close_quietly(attached_shm)
            _release_shm(shm)
