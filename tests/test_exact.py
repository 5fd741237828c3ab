"""SCTL*-Exact (Algorithm 7) against brute force and peer solvers."""

import pytest

from repro.baselines import core_exact, kcl_exact
from repro.cliques import count_k_cliques_naive, densest_subgraph_bruteforce
from repro.core import SCTIndex, sctl_star_exact
from repro.errors import IndexQueryError, InvalidParameterError
from repro.graph import Graph, gnp_graph, planted_near_cliques_graph
from repro.graph.generators import overlapping_community_graph
from repro.obs import MetricsRecorder
from repro.options import RunOptions


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_bruteforce(self, seed, k):
        g = gnp_graph(11, 0.55, seed=seed)
        index = SCTIndex.build(g)
        result = sctl_star_exact(g, k, index=index, sample_size=100, iterations=4, seed=seed)
        _, optimal = densest_subgraph_bruteforce(g, k)
        assert result.density == pytest.approx(optimal)
        assert result.exact

    def test_no_kclique_graph(self):
        g = Graph(5, [(0, 1), (1, 2)])
        result = sctl_star_exact(g, 3)
        assert result.vertices == []
        assert result.exact

    def test_k6_plus_k4(self, k6_plus_k4):
        result = sctl_star_exact(k6_plus_k4, 3, sample_size=50)
        assert result.vertices == [0, 1, 2, 3, 4, 5]
        assert result.density == pytest.approx(20 / 6)

    def test_reported_count_is_true_count(self, caveman):
        result = sctl_star_exact(caveman, 3, sample_size=200)
        sub, _ = caveman.induced_subgraph(result.vertices)
        assert count_k_cliques_naive(sub, 3) == result.clique_count

    def test_builds_index_when_missing(self, small_random):
        result = sctl_star_exact(small_random, 3, sample_size=50)
        assert result.exact


class TestAgreementWithPeers:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_three_exact_solvers_agree(self, k):
        g = planted_near_cliques_graph(
            45, [(9, 0.9), (8, 0.85)], background_p=0.02, seed=17
        )
        ours = sctl_star_exact(g, k, sample_size=500, iterations=6)
        kclx = kcl_exact(g, k, initial_iterations=5, max_total_iterations=40)
        corex = core_exact(g, k)
        assert ours.density_fraction == kclx.density_fraction
        assert ours.density_fraction == corex.density_fraction


class TestStats:
    def test_scope_and_flow_stats(self, caveman):
        result = sctl_star_exact(caveman, 3, sample_size=100)
        assert result.stats["scope_vertices"] <= caveman.n
        assert result.stats["scope_cliques"] >= result.clique_count
        assert result.stats["flow_rounds"] >= 1
        assert result.upper_bound == pytest.approx(result.density)


class TestArgumentChecks:
    """A caller's mistake is rejected before any work: no stage opens."""

    @pytest.fixture(scope="class")
    def graph(self):
        return overlapping_community_graph(
            300, 20, 16, 0.5, memberships=2, seed=3
        )

    @pytest.fixture(scope="class")
    def index(self, graph):
        return SCTIndex.build(graph)

    @staticmethod
    def stages_opened(error, graph, k, **kwargs):
        rec = MetricsRecorder()
        with pytest.raises(error):
            sctl_star_exact(
                graph, k, options=RunOptions(recorder=rec), **kwargs
            )
        return [
            path for path in rec.iter_span_paths()
            if path.startswith(("exact/", "index/build"))
        ]

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_max_rounds(self, graph, index, max_rounds):
        assert self.stages_opened(
            InvalidParameterError, graph, 4, index=index,
            max_rounds=max_rounds,
        ) == []

    @pytest.mark.parametrize("argument", ["iterations", "sample_size"])
    def test_counts_with_index(self, graph, index, argument):
        assert self.stages_opened(
            InvalidParameterError, graph, 4, index=index, **{argument: 0}
        ) == []

    @pytest.mark.parametrize("argument", ["iterations", "sample_size"])
    def test_counts_before_build(self, graph, argument):
        assert self.stages_opened(
            InvalidParameterError, graph, 4, **{argument: 0}
        ) == []

    def test_k_below_one(self, graph, index):
        assert self.stages_opened(
            InvalidParameterError, graph, 0, index=index
        ) == []

    def test_partial_index_below_threshold(self):
        graph = overlapping_community_graph(
            600, 40, 20, 0.55, memberships=2, seed=1
        )
        partial = SCTIndex.build(graph, threshold=6)
        assert self.stages_opened(
            IndexQueryError, graph, 5, index=partial
        ) == []
