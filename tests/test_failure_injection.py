"""Failure injection: corrupted inputs must fail loudly and typed."""

import pytest

from repro.core import SCTIndex
from repro.errors import GraphError, IndexBuildError, ReproError
from repro.graph import Graph, gnp_graph, read_edge_list

from .index_files import v1_file


@pytest.fixture
def saved_index(tmp_path):
    # the v1 text format: line-level corruptions below edit it as text
    path = tmp_path / "ok.sct"
    path.write_bytes(v1_file("gnp-12-s1").read_bytes())
    return path


@pytest.fixture
def saved_index_v2(tmp_path):
    g = gnp_graph(12, 0.5, seed=1)
    path = tmp_path / "ok.sct2"
    SCTIndex.build(g).save(path)
    return path


class TestCorruptIndexFiles:
    def test_truncated_file(self, saved_index):
        text = saved_index.read_text().splitlines()
        saved_index.write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(IndexBuildError):
            SCTIndex.load(saved_index)

    def test_garbage_header(self, tmp_path):
        bad = tmp_path / "bad.sct"
        bad.write_text("not json at all\n")
        with pytest.raises(IndexBuildError):
            SCTIndex.load(bad)

    def test_missing_header_fields(self, tmp_path):
        bad = tmp_path / "bad.sct"
        bad.write_text('{"format": 1}\n')
        with pytest.raises(IndexBuildError):
            SCTIndex.load(bad)

    def test_non_numeric_node_line(self, saved_index):
        lines = saved_index.read_text().splitlines()
        lines[1] = "x y z w"
        saved_index.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexBuildError):
            SCTIndex.load(saved_index)

    def test_out_of_range_child_pointer(self, tmp_path):
        bad = tmp_path / "bad.sct"
        bad.write_text(
            '{"format": 1, "n_vertices": 1, "n_nodes": 2, "threshold": 0}\n'
            "-1 -1 1 1 99\n"
            "0 0 1 0\n"
        )
        with pytest.raises(IndexBuildError):
            SCTIndex.load(bad)

    def test_errors_are_catchable_as_base(self, tmp_path):
        bad = tmp_path / "bad.sct"
        bad.write_text("{}\n")
        with pytest.raises(ReproError):
            SCTIndex.load(bad)


class TestCorruptIndexFilesV2:
    def test_truncated_binary_section(self, saved_index_v2):
        data = saved_index_v2.read_bytes()
        saved_index_v2.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexBuildError, match="truncated or oversized"):
            SCTIndex.load(saved_index_v2)

    def test_trailing_garbage(self, saved_index_v2):
        with saved_index_v2.open("ab") as handle:
            handle.write(b"\x00" * 64)
        with pytest.raises(IndexBuildError, match="truncated or oversized"):
            SCTIndex.load(saved_index_v2)

    def test_unknown_column_layout(self, tmp_path):
        bad = tmp_path / "bad.sct2"
        bad.write_bytes(
            b'{"format": 2, "n_vertices": 1, "n_nodes": 1, "threshold": 0, '
            b'"itemsize": 8, "endian": "little", "columns": ["mystery"]}\n'
        )
        with pytest.raises(IndexBuildError, match="column layout"):
            SCTIndex.load(bad)

    def test_corrupt_root_sentinel(self, saved_index_v2):
        data = bytearray(saved_index_v2.read_bytes())
        header_end = data.index(b"\n") + 1
        # vertex[0] is the virtual root's -1 sentinel; zero it out
        data[header_end:header_end + 8] = b"\x00" * 8
        saved_index_v2.write_bytes(bytes(data))
        with pytest.raises(IndexBuildError, match="inconsistent column data"):
            SCTIndex.load(saved_index_v2)

    def test_v2_errors_are_catchable_as_base(self, saved_index_v2):
        data = saved_index_v2.read_bytes()
        saved_index_v2.write_bytes(data[:40])
        with pytest.raises(ReproError):
            SCTIndex.load(saved_index_v2)


class TestCorruptGraphFiles:
    def test_single_token_line(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("1 2\nonly\n")
        with pytest.raises(GraphError):
            read_edge_list(f)

    def test_empty_file_gives_empty_graph(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# nothing\n")
        g = read_edge_list(f)
        assert g.n == 0 and g.m == 0


class TestDefensiveGraphConstruction:
    def test_edges_referencing_ghost_vertices(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1), (1, 2)])

    def test_negative_vertex_id(self):
        with pytest.raises(GraphError):
            Graph(3, [(-1, 0)])
