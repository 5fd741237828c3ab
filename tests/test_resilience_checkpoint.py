"""Unit tests for repro.resilience.checkpoint and crash-safe index saves."""

import itertools
import os

import pytest

from repro.core import SCTIndex
from repro.errors import CheckpointError
from repro.graph import relaxed_caveman_graph
from repro.resilience import Checkpointer, atomic_writer, require_match


def fake_clock(start: int = 0):
    counter = itertools.count(start)
    return lambda: next(counter)


class TestAtomicWriter:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_writer(target) as handle:
            handle.write("hello\n")
        assert target.read_text() == "hello\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_preserves_old_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("half-written new content")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old\n"
        # the temp file must not leak either
        assert os.listdir(tmp_path) == ["out.txt"]


class TestCheckpointer:
    def test_roundtrip(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        payload = {"k": 4, "weights": [0, 2, 5], "name": "x"}
        ckpt.save("sctl-weights", payload)
        assert ckpt.has("sctl-weights")
        assert ckpt.load("sctl-weights") == payload

    def test_load_missing_returns_none(self, tmp_path):
        assert Checkpointer(tmp_path).load("nothing") is None

    def test_clear(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        ckpt.save("a", {"x": 1})
        ckpt.clear("a")
        assert not ckpt.has("a")
        ckpt.clear("a")  # idempotent

    def test_kinds_are_independent(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        ckpt.save("a", {"x": 1})
        ckpt.save("b", {"x": 2})
        assert ckpt.load("a") == {"x": 1}
        assert ckpt.load("b") == {"x": 2}

    def test_ensure_normalises(self, tmp_path):
        assert Checkpointer.ensure(None) is None
        ckpt = Checkpointer(tmp_path)
        assert Checkpointer.ensure(ckpt) is ckpt
        made = Checkpointer.ensure(str(tmp_path))
        assert isinstance(made, Checkpointer)

    def test_due_respects_interval(self, tmp_path):
        ckpt = Checkpointer(tmp_path, interval_seconds=10, clock=fake_clock())
        assert ckpt.due("a")  # never saved: always due
        ckpt.save("a", {"x": 1})
        assert not ckpt.due("a")
        # the fake clock advances one second per call; not due until +10
        for _ in range(8):
            assert not ckpt.due("a")
        assert ckpt.due("a")

    def test_zero_interval_always_due(self, tmp_path):
        ckpt = Checkpointer(tmp_path, interval_seconds=0)
        ckpt.save("a", {"x": 1})
        assert ckpt.due("a")


class TestCorruption:
    def _saved(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        ckpt.save("kind", {"k": 3, "weights": [1, 2]})
        return ckpt, ckpt.path_for("kind")

    def test_corrupt_header(self, tmp_path):
        ckpt, path = self._saved(tmp_path)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("not json{\n" + lines[1] + "\n")
        with pytest.raises(CheckpointError, match="header"):
            ckpt.load("kind")

    def test_wrong_format_version(self, tmp_path):
        ckpt, path = self._saved(tmp_path)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write('{"format": 999, "kind": "kind", "checksum": 0}\n')
            handle.write(lines[1] + "\n")
        with pytest.raises(CheckpointError, match="format"):
            ckpt.load("kind")

    def test_kind_mismatch(self, tmp_path):
        ckpt, path = self._saved(tmp_path)
        os.replace(path, Checkpointer(tmp_path).path_for("other"))
        with pytest.raises(CheckpointError, match="kind"):
            ckpt.load("other")

    def test_truncated_payload(self, tmp_path):
        ckpt, path = self._saved(tmp_path)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write(lines[0] + "\n")
        with pytest.raises(CheckpointError, match="truncated"):
            ckpt.load("kind")

    def test_checksum_mismatch(self, tmp_path):
        ckpt, path = self._saved(tmp_path)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write(lines[0] + "\n")
            handle.write(lines[1][:-2] + "}\n")  # clip the payload
        with pytest.raises(CheckpointError, match="checksum"):
            ckpt.load("kind")


class TestRequireMatch:
    def test_match_passes(self):
        require_match({"k": 4, "n": 10, "extra": 1}, {"k": 4, "n": 10}, "kind")

    def test_mismatch_names_field(self):
        with pytest.raises(CheckpointError, match="k="):
            require_match({"k": 4}, {"k": 5}, "kind")

    def test_missing_field_is_mismatch(self):
        with pytest.raises(CheckpointError):
            require_match({}, {"n": 3}, "kind")


class TestCrashSafeIndexSave:
    """Satellite: a fault mid-save must leave the old index file readable."""

    def test_mid_save_fault_preserves_old_index(self, tmp_path, monkeypatch):
        graph = relaxed_caveman_graph(5, 5, 0.1, seed=2)
        index = SCTIndex.build(graph)
        target = tmp_path / "graph.sct"
        index.save(target)
        before = target.read_bytes()

        def exploding_write_v2(self, handle):
            handle.write(b"garbage that must never land in the target\n")
            raise OSError("disk full")

        monkeypatch.setattr(SCTIndex, "_write_v2", exploding_write_v2)
        with pytest.raises(OSError):
            index.save(target)
        monkeypatch.undo()

        assert target.read_bytes() == before
        assert os.listdir(tmp_path) == ["graph.sct"]  # no stray temp files
        reloaded = SCTIndex.load(target)
        assert reloaded.n_vertices == index.n_vertices
        assert reloaded.count_k_cliques(3) == index.count_k_cliques(3)
