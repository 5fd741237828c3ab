"""SCT*-Index save/load: v2 round-trips and the checked-in v1 files."""

import tracemalloc

import pytest

from repro.core import SCTIndex
from repro.core.sct_format import FORMAT_V1, peek_header
from repro.datasets import load_dataset
from repro.errors import IndexBuildError
from repro.graph import gnp_graph

from .index_files import V1_DIR, V1_GRAPHS, built_index, v1_file, v2_bytes


@pytest.fixture(params=["v1", "v2"])
def fmt(request):
    return request.param


def _reloaded(name, fmt, tmp_path):
    """Graph ``name``'s index as built, and as read back from disk: from
    the v2 file it saves, or from the graph's checked-in v1 file."""
    index = built_index(name)
    if fmt == "v1":
        return index, SCTIndex.load(v1_file(name))
    path = tmp_path / f"{name}.sct2"
    index.save(path)
    return index, SCTIndex.load(path)


def _v1_text(name, tmp_path):
    """A writable copy of graph ``name``'s v1 file, and its lines."""
    file = tmp_path / f"{name}.sct1"
    file.write_bytes(v1_file(name).read_bytes())
    return file, file.read_text(encoding="utf-8").splitlines()


class TestRoundTrip:
    def test_counts_preserved(self, tmp_path, fmt):
        index, loaded = _reloaded("caveman-6x5", fmt, tmp_path)
        assert loaded.n_vertices == index.n_vertices
        assert loaded.threshold == index.threshold
        assert loaded.max_clique_size == index.max_clique_size
        assert loaded.clique_counts_by_size() == index.clique_counts_by_size()

    def test_paths_preserved(self, tmp_path, fmt):
        index, loaded = _reloaded("gnp-12-s2", fmt, tmp_path)
        original = sorted((p.holds, p.pivots) for p in index.iter_paths())
        restored = sorted((p.holds, p.pivots) for p in loaded.iter_paths())
        assert original == restored

    def test_partial_threshold_preserved(self, tmp_path, fmt):
        index, loaded = _reloaded("gnp-14-s3-t4", fmt, tmp_path)
        assert loaded.threshold == 4
        assert not loaded.supports_k(3)
        assert loaded.count_k_cliques(4) == index.count_k_cliques(4)

    def test_empty_graph_round_trip(self, tmp_path, fmt):
        _, loaded = _reloaded("edgeless-3", fmt, tmp_path)
        assert loaded.n_vertices == 3
        assert loaded.count_k_cliques(1) == 3

    def test_empty_tree_round_trip(self, tmp_path, fmt):
        # zero vertices: the tree is just the virtual root (n_nodes == 1)
        _, loaded = _reloaded("no-vertices", fmt, tmp_path)
        assert loaded.n_vertices == 0
        assert loaded.n_tree_nodes == 0

    def test_max_depth_and_statistics_preserved(self, tmp_path, fmt):
        index, loaded = _reloaded("caveman-5x6", fmt, tmp_path)
        assert loaded.max_clique_size == index.max_clique_size
        assert loaded.statistics() == index.statistics()

    def test_bad_format_version_rejected(self, tmp_path):
        file = tmp_path / "bad.sct"
        file.write_text('{"format": 999, "n_vertices": 0, "n_nodes": 0, "threshold": 0}\n')
        with pytest.raises(IndexBuildError):
            SCTIndex.load(file)


class TestFormatDispatch:
    """Satellite: cross-version errors must name found/supported formats."""

    def test_v2_file_is_mmap_backed(self, tmp_path):
        index = SCTIndex.build(gnp_graph(10, 0.5, seed=5))
        file = tmp_path / "i.sct2"
        index.save(file)  # v2 is the default
        loaded = SCTIndex.load(file)
        assert loaded.backing == "mmap"
        loaded.close()
        assert loaded.backing == "memory"

    def test_v1_file_is_memory_backed(self):
        assert SCTIndex.load(v1_file("gnp-10-s5")).backing == "memory"

    def test_v1_reader_on_v2_file_names_versions(self, tmp_path):
        index = SCTIndex.build(gnp_graph(10, 0.5, seed=5))
        file = tmp_path / "i.sct2"
        index.save(file)
        with pytest.raises(IndexBuildError) as excinfo:
            SCTIndex._load_v1(file)
        message = str(excinfo.value)
        assert "format 2" in message and "format 1" in message
        assert "supported formats: 1, 2" in message

    def test_v2_reader_on_v1_file_names_versions(self):
        with pytest.raises(IndexBuildError) as excinfo:
            SCTIndex._load_v2(v1_file("gnp-10-s5"))
        message = str(excinfo.value)
        assert "format 1" in message and "format 2" in message
        assert "supported formats: 1, 2" in message

    def test_load_dispatches_on_header(self, tmp_path):
        index = built_index("gnp-10-s5")
        v1, v2 = v1_file("gnp-10-s5"), tmp_path / "i.sct2"
        index.save(v2)
        paths = [(p.holds, p.pivots) for p in index.iter_paths()]
        for file in (v1, v2):
            loaded = SCTIndex.load(file)
            assert [(p.holds, p.pivots) for p in loaded.iter_paths()] == paths


class TestLoadValidation:
    @pytest.mark.parametrize("bad_vertex", ["99", "-1"])
    def test_out_of_range_vertex_rejected(self, tmp_path, bad_vertex):
        file, lines = _v1_text("gnp-8-s4", tmp_path)
        # line 0 is the JSON header, line 1 the virtual root; corrupt the
        # first real tree node with a vertex id the graph cannot contain
        fields = lines[2].split()
        fields[0] = bad_vertex
        lines[2] = " ".join(fields)
        file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IndexBuildError, match=f"vertex id {bad_vertex} out of range"):
            SCTIndex.load(file)

    def test_error_message_names_the_offending_line(self, tmp_path):
        file, lines = _v1_text("gnp-8-s4", tmp_path)
        fields = lines[2].split()
        fields[0] = "123456"
        lines[2] = " ".join(fields)
        file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IndexBuildError) as excinfo:
            SCTIndex.load(file)
        assert lines[2] in str(excinfo.value)

    def test_root_keeps_its_sentinel_vertex(self):
        # the virtual root legitimately stores -1; a v1 load must accept it
        loaded = SCTIndex.load(v1_file("gnp-8-s4"))
        index = built_index("gnp-8-s4")
        assert loaded.count_k_cliques(3) == index.count_k_cliques(3)

    def test_v1_non_preorder_ids_are_canonicalised(self, tmp_path):
        # a hand-crafted v1 file whose node ids are not pre-order must
        # still load: the loader renumbers to pre-order (2 <-> 3 swapped
        # here: root -> 1 -> 3 -> 2 in DFS order)
        file = tmp_path / "shuffled.sct"
        file.write_text(
            '{"format": 1, "n_vertices": 3, "n_nodes": 4, "threshold": 0}\n'
            "-1 -1 3 1 1\n"  # root, child: node 1
            "0 0 3 1 3\n"  # hold(v0), child: node 3
            "2 0 3 0\n"  # hold(v2), leaf -- stored out of order
            "1 1 3 1 2\n"  # pivot(v1), child: node 2
        )
        loaded = SCTIndex.load(file)
        assert [(p.holds, p.pivots) for p in loaded.iter_paths()] == [
            ((0, 2), (1,))
        ]

    def test_v1_cyclic_child_pointers_rejected(self, tmp_path):
        file = tmp_path / "cycle.sct"
        file.write_text(
            '{"format": 1, "n_vertices": 2, "n_nodes": 3, "threshold": 0}\n'
            "-1 -1 2 1 1\n"
            "0 0 2 1 2\n"
            "1 0 2 1 1\n"  # points back at node 1: not a tree
        )
        with pytest.raises(IndexBuildError, match="not a tree"):
            SCTIndex.load(file)

    def test_v1_unreachable_node_rejected(self, tmp_path):
        file = tmp_path / "orphan.sct"
        file.write_text(
            '{"format": 1, "n_vertices": 2, "n_nodes": 3, "threshold": 0}\n'
            "-1 -1 1 1 1\n"
            "0 0 1 0\n"
            "1 0 1 0\n"  # no parent anywhere
        )
        with pytest.raises(IndexBuildError, match="unreachable"):
            SCTIndex.load(file)


class TestV1ToV2Canonicalisation:
    """Loading any v1 file and re-saving as v2 yields canonical bytes."""

    HEADER = '{"format": 1, "n_vertices": 4, "n_nodes": 5, "threshold": 0}\n'
    # two sibling subtrees of EQUAL size (2 nodes each), so the
    # canonicaliser cannot lean on subtree sizes to order them
    SHUFFLED = (
        "-1 -1 2 2 3 1\n"  # root, children stored as (node 3, node 1)
        "2 0 2 1 4\n"  # hold(v2), child: node 4
        "1 0 2 0\n"  # hold(v1), leaf
        "0 0 2 1 2\n"  # hold(v0), child: node 2
        "3 0 2 0\n"  # hold(v3), leaf
    )
    PREORDER = (
        "-1 -1 2 2 1 3\n"
        "0 0 2 1 2\n"
        "1 0 2 0\n"
        "2 0 2 1 4\n"
        "3 0 2 0\n"
    )

    def test_duplicate_subtree_sizes_canonicalise_identically(self, tmp_path):
        shuffled = tmp_path / "shuffled.sct"
        preorder = tmp_path / "preorder.sct"
        shuffled.write_text(self.HEADER + self.SHUFFLED)
        preorder.write_text(self.HEADER + self.PREORDER)
        a = SCTIndex.load(shuffled)
        b = SCTIndex.load(preorder)
        assert [(p.holds, p.pivots) for p in a.iter_paths()] == [
            ((0, 1), ()), ((2, 3), ()),
        ]
        assert v2_bytes(a) == v2_bytes(b)

    def test_empty_graph_v1_to_v2_chain(self, tmp_path):
        # vertices, no edges
        SCTIndex.load(v1_file("edgeless-3")).save(tmp_path / "e.sct2")
        loaded = SCTIndex.load(tmp_path / "e.sct2")
        assert loaded.n_vertices == 3
        assert loaded.count_k_cliques(1) == 3
        assert v2_bytes(loaded) == v2_bytes(built_index("edgeless-3"))

    def test_single_vertex_graph_v1_to_v2_chain(self, tmp_path):
        SCTIndex.load(v1_file("single-vertex")).save(tmp_path / "s.sct2")
        loaded = SCTIndex.load(tmp_path / "s.sct2")
        assert loaded.n_vertices == 1
        assert loaded.count_k_cliques(1) == 1
        assert v2_bytes(loaded) == v2_bytes(built_index("single-vertex"))

    def test_header_without_format_names_supported_formats(self, tmp_path):
        file = tmp_path / "nofmt.sct"
        file.write_text('{"n_vertices": 4, "n_nodes": 5, "threshold": 0}\n')
        with pytest.raises(IndexBuildError) as excinfo:
            SCTIndex.load(file)
        message = str(excinfo.value)
        assert "format None" in message
        assert "supported formats: 1, 2" in message

    def test_truncated_v2_header_is_a_precise_error(self, tmp_path):
        index = SCTIndex.build(gnp_graph(8, 0.4, seed=6))
        file = tmp_path / "i.sct2"
        index.save(file)
        data = file.read_bytes()
        header_len = len(data.splitlines(True)[0])
        # cut mid-header: no valid JSON line, no binary section
        (tmp_path / "trunc.sct2").write_bytes(data[: header_len // 2])
        with pytest.raises(IndexBuildError, match="malformed index file"):
            SCTIndex.load(tmp_path / "trunc.sct2")
        # header intact but the binary section is gone entirely
        (tmp_path / "headonly.sct2").write_bytes(data[:header_len])
        with pytest.raises(IndexBuildError, match="truncated or oversized"):
            SCTIndex._load_v2(tmp_path / "headonly.sct2")


class TestV1Files:
    """The checked-in v1 files stay loadable.

    They were written once by the v1 writer of commit 67bd642, the last
    commit that had one, and must not be regenerated
    (``tests/index_files.py``).
    """

    def test_every_file_has_its_graph(self):
        assert sorted(p.name for p in V1_DIR.iterdir()) == sorted(
            v1_file(name).name for name in V1_GRAPHS
        )

    @pytest.mark.parametrize("name", sorted(V1_GRAPHS))
    def test_v1_file_loads_to_the_built_index(self, name):
        assert peek_header(v1_file(name))["format"] == FORMAT_V1
        loaded = SCTIndex.load(v1_file(name))
        assert v2_bytes(loaded) == v2_bytes(built_index(name))


def _load_peak_bytes(path):
    """Peak Python-heap bytes allocated by one ``SCTIndex.load(path)``."""
    SCTIndex.load(path).close()  # first-call imports and caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        index = SCTIndex.load(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert index.backing == "mmap"
    index.close()
    return peak


class TestV2LoadCost:
    # a v2 load maps the file and casts views: its allocations are the
    # header and the index object, whatever the tree's size
    BOUND = 32 * 1024

    def test_load_allocates_the_same_for_any_index_size(self, tmp_path):
        small = built_index("caveman-6x5")
        large = SCTIndex.build(load_dataset("friendster"))
        assert large.n_tree_nodes >= 10 * small.n_tree_nodes
        peaks = []
        for name, index in (("small", small), ("large", large)):
            path = tmp_path / f"{name}.sct2"
            index.save(path)
            peaks.append(_load_peak_bytes(path))
        # the large file's columns are many times the bound, so a load
        # that copied or parsed them would not fit under it
        assert path.stat().st_size > 50 * self.BOUND
        assert max(peaks) < self.BOUND, peaks
