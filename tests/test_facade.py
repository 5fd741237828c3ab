"""The densest_subgraph facade and result type."""

from fractions import Fraction

import pytest

from repro import SCTIndex, densest_subgraph
from repro.errors import InvalidParameterError
from repro.graph import Graph
from repro.results import DenseSubgraphResult


ALL_METHODS = [
    "sctl",
    "sctl+",
    "sctl*",
    "sctl*-sample",
    "sctl*-exact",
    "kcl",
    "kcl-sample",
    "kcl-exact",
    "coreapp",
    "coreexact",
]


class TestFacade:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_runs(self, k6_plus_k4, method):
        result = densest_subgraph(
            k6_plus_k4, 3, method=method, iterations=8, sample_size=200
        )
        assert isinstance(result, DenseSubgraphResult)
        assert result.k == 3
        # all algorithms find the K6 on this easy instance, except CoreApp
        # which may return a superset; density is at least the 1/k bound
        assert result.density >= (20 / 6) / 3 - 1e-9

    @pytest.mark.parametrize("method", ["sctl*-exact", "kcl-exact", "coreexact"])
    def test_exact_methods_flagged(self, k6_plus_k4, method):
        result = densest_subgraph(k6_plus_k4, 3, method=method)
        assert result.exact
        assert result.density == pytest.approx(20 / 6)

    def test_method_case_insensitive(self, k6_plus_k4):
        result = densest_subgraph(k6_plus_k4, 3, method="SCTL*")
        assert result.algorithm == "SCTL*"

    def test_unknown_method(self, k6_plus_k4):
        with pytest.raises(InvalidParameterError):
            densest_subgraph(k6_plus_k4, 3, method="magic")

    def test_index_reuse(self, k6_plus_k4):
        index = SCTIndex.build(k6_plus_k4)
        a = densest_subgraph(k6_plus_k4, 3, method="sctl*", index=index)
        b = densest_subgraph(k6_plus_k4, 3, method="sctl*")
        assert a.density == b.density


class TestResultType:
    def test_density_fraction_exact(self):
        result = DenseSubgraphResult(
            vertices=[1, 2, 3], clique_count=2, k=3, algorithm="x"
        )
        assert result.density_fraction == Fraction(2, 3)
        assert result.size == 3

    def test_empty_density_zero(self):
        result = DenseSubgraphResult(vertices=[], clique_count=0, k=3, algorithm="x")
        assert result.density_fraction == Fraction(0)
        assert result.density == 0.0

    def test_approximation_ratio(self):
        result = DenseSubgraphResult(
            vertices=[0, 1], clique_count=1, k=3, algorithm="x"
        )
        assert result.approximation_ratio(Fraction(1, 2)) == pytest.approx(1.0)
        assert result.approximation_ratio(Fraction(1)) == pytest.approx(0.5)
        assert result.approximation_ratio(Fraction(0)) == float("inf")

    def test_summary_mentions_key_facts(self):
        result = DenseSubgraphResult(
            vertices=[0], clique_count=0, k=4, algorithm="SCTL*", exact=True
        )
        text = result.summary()
        assert "SCTL*" in text
        assert "k=4" in text
        assert "exact" in text
