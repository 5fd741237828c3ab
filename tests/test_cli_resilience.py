"""CLI coverage for the resilience flags and exit codes."""

import pytest

import repro.cli as cli
from repro.cli import EXIT_EXHAUSTED, EXIT_PARTIAL, main
from repro.core import SCTIndex
from repro.errors import TimeoutExceeded
from repro.graph import gnp_graph, write_edge_list
from repro.results import PartialResult


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(gnp_graph(30, 0.35, seed=1), path)
    return str(path)


class TestGenerousBudget:
    def test_query_succeeds_within_budget(self, graph_file, capsys):
        assert main(["query", graph_file, "-k", "3", "--time-budget", "1e9"]) == 0
        assert "SCTL*" in capsys.readouterr().out

    def test_build_succeeds_within_budget(self, graph_file, tmp_path, capsys):
        out_file = str(tmp_path / "g.sct")
        code = main(
            ["build-index", graph_file, "-o", out_file, "--time-budget", "1e9"]
        )
        assert code == 0
        assert SCTIndex.load(out_file).n_vertices == 30


class TestExhaustedExitCodes:
    def test_query_zero_budget_exits_3(self, graph_file, capsys):
        code = main(["query", graph_file, "-k", "3", "--time-budget", "0"])
        assert code == EXIT_EXHAUSTED
        err = capsys.readouterr().err
        assert "budget exhausted" in err

    def test_build_zero_budget_exits_3(self, graph_file, tmp_path, capsys):
        out_file = str(tmp_path / "g.sct")
        code = main(
            ["build-index", graph_file, "-o", out_file, "--time-budget", "0"]
        )
        assert code == EXIT_EXHAUSTED
        assert "budget exhausted" in capsys.readouterr().err

    def test_build_exhausted_mentions_resume(self, graph_file, tmp_path, capsys):
        out_file = str(tmp_path / "g.sct")
        ckpt_dir = str(tmp_path / "ckpt")
        code = main([
            "build-index", graph_file, "-o", out_file,
            "--time-budget", "0", "--checkpoint", ckpt_dir,
        ])
        assert code == EXIT_EXHAUSTED
        assert "--resume" in capsys.readouterr().err

    def test_valid_partial_exits_4(self, graph_file, capsys, monkeypatch):
        # a deterministic stand-in for "budget ran out after some progress"
        def fake_densest_subgraph(graph, k, **kwargs):
            return PartialResult(
                vertices=[0, 1, 2], clique_count=1, k=k, algorithm="SCTL*",
                iterations=2, reason="deadline", stage="refine/iteration/3",
            )

        monkeypatch.setattr(cli, "densest_subgraph", fake_densest_subgraph)
        code = main(["query", graph_file, "-k", "3", "--time-budget", "1e9"])
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "[partial: deadline" in captured.out
        assert "best result achieved" in captured.err

    def test_stray_budget_error_exits_3(self, graph_file, capsys, monkeypatch):
        def raising(graph, k, **kwargs):
            raise TimeoutExceeded(1.5, stage="somewhere")

        monkeypatch.setattr(cli, "densest_subgraph", raising)
        code = main(["query", graph_file, "-k", "3"])
        assert code == EXIT_EXHAUSTED
        assert "budget exhausted" in capsys.readouterr().err


class TestCheckpointResumeFlow:
    def test_build_resume_completes_to_identical_index(
        self, graph_file, tmp_path, capsys
    ):
        direct = str(tmp_path / "direct.sct")
        assert main(["build-index", graph_file, "-o", direct]) == 0

        resumed = str(tmp_path / "resumed.sct")
        ckpt_dir = str(tmp_path / "ckpt")
        code = main([
            "build-index", graph_file, "-o", resumed,
            "--time-budget", "0", "--checkpoint", ckpt_dir,
        ])
        assert code == EXIT_EXHAUSTED
        code = main([
            "build-index", graph_file, "-o", resumed,
            "--checkpoint", ckpt_dir, "--resume",
        ])
        assert code == 0
        with open(direct, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()

    def test_query_accepts_checkpoint_flags(self, graph_file, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "ckpt")
        code = main([
            "query", graph_file, "-k", "3", "--checkpoint", ckpt_dir,
        ])
        assert code == 0

    def test_unbudgeted_run_unchanged(self, graph_file, capsys):
        """The default path (no resilience flags) behaves exactly as before."""

        def stable(text):  # drop the wall-clock line, keep the result lines
            return [l for l in text.splitlines() if not l.startswith("query time")]

        assert main(["query", graph_file, "-k", "3"]) == 0
        baseline = stable(capsys.readouterr().out)
        assert main(["query", graph_file, "-k", "3"]) == 0
        assert stable(capsys.readouterr().out) == baseline
