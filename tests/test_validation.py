"""Independent result verification."""

import pytest

from repro.core import SCTIndex, sctl_star, sctl_star_exact
from repro.core.validation import verify_result
from repro.graph import Graph, gnp_graph
from repro.results import DenseSubgraphResult


class TestVerifyResult:
    def test_valid_exact_result_passes(self, k6_plus_k4):
        result = sctl_star_exact(k6_plus_k4, 3, sample_size=50)
        report = verify_result(k6_plus_k4, result)
        assert report.ok
        assert report.optimality_checked
        assert report.recounted_cliques == result.clique_count

    def test_valid_approx_result_passes_without_optimality(self, small_random):
        index = SCTIndex.build(small_random)
        result = sctl_star(index, 3, iterations=5)
        report = verify_result(small_random, result)
        assert report.ok
        assert not report.optimality_checked

    def test_wrong_count_detected(self, small_random):
        forged = DenseSubgraphResult(
            vertices=[0, 1, 2], clique_count=999, k=3, algorithm="forged"
        )
        report = verify_result(small_random, forged)
        assert not report.ok
        assert any("mismatch" in p for p in report.problems)

    def test_duplicate_vertices_detected(self):
        forged = DenseSubgraphResult(
            vertices=[0, 0, 1], clique_count=0, k=3, algorithm="forged"
        )
        report = verify_result(Graph.complete(3), forged)
        assert not report.ok

    def test_out_of_range_vertices_detected(self):
        forged = DenseSubgraphResult(
            vertices=[0, 99], clique_count=0, k=3, algorithm="forged"
        )
        assert not verify_result(Graph.complete(3), forged).ok

    def test_suboptimal_exact_claim_detected(self, k6_plus_k4):
        # claim the K4 is the exact optimum while the K6 exists
        forged = DenseSubgraphResult(
            vertices=[6, 7, 8, 9], clique_count=4, k=3,
            algorithm="forged", exact=True,
        )
        report = verify_result(k6_plus_k4, forged)
        assert not report.ok
        assert any("not optimal" in p for p in report.problems)

    def test_empty_with_nonzero_count_detected(self):
        forged = DenseSubgraphResult(
            vertices=[], clique_count=5, k=3, algorithm="forged"
        )
        assert not verify_result(Graph.complete(4), forged).ok

    def test_bool_protocol(self, k6_plus_k4):
        result = sctl_star_exact(k6_plus_k4, 3, sample_size=50)
        assert verify_result(k6_plus_k4, result)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_algorithm_survives_verification(self, seed):
        from repro import densest_subgraph

        g = gnp_graph(15, 0.45, seed=seed)
        for method in ("sctl*", "kcl", "coreapp", "peel", "sctl*-exact"):
            result = densest_subgraph(g, 3, method=method, iterations=8)
            assert verify_result(g, result), method
