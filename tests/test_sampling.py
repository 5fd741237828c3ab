"""SCTL*-Sample (Algorithm 6) and the clique sampler."""

import random
from math import comb

import pytest

from repro.cliques import count_k_cliques_naive, densest_subgraph_bruteforce
from repro.core import SCTIndex, sample_k_cliques, sampling, sctl_star_sample
from repro.core.sampling import _unrank_combination
from repro.errors import InvalidParameterError
from repro.graph import Graph, gnp_graph, relaxed_caveman_graph


class TestUnranking:
    def test_bijection(self):
        m, t = 7, 3
        seen = {_unrank_combination(r, m, t) for r in range(comb(m, t))}
        assert len(seen) == comb(m, t)
        for combo in seen:
            assert len(combo) == t
            assert all(0 <= x < m for x in combo)
            assert list(combo) == sorted(combo)

    def test_first_and_last(self):
        assert _unrank_combination(0, 5, 2) == (0, 1)
        assert _unrank_combination(comb(5, 2) - 1, 5, 2) == (3, 4)


class TestSampler:
    def test_sample_is_distinct_valid_cliques(self):
        g = gnp_graph(14, 0.5, seed=1)
        index = SCTIndex.build(g)
        paths = index.collect_paths(3)
        rng = random.Random(0)
        sample = sample_k_cliques(paths, 3, 30, rng)
        assert len(sample) <= 30
        assert len({tuple(sorted(c)) for c in sample}) == len(sample)
        for clique in sample:
            assert g.is_clique(clique)

    def test_oversized_budget_returns_everything(self):
        g = gnp_graph(12, 0.5, seed=2)
        index = SCTIndex.build(g)
        paths = index.collect_paths(3)
        total = count_k_cliques_naive(g, 3)
        sample = sample_k_cliques(paths, 3, total * 10, random.Random(0))
        assert len(sample) == total

    def test_allocation_roughly_proportional(self):
        # two far-apart blocks: the bigger block should receive more samples
        g = relaxed_caveman_graph(2, 12, 0.0, seed=0)
        index = SCTIndex.build(g)
        paths = index.collect_paths(3)
        sample = sample_k_cliques(paths, 3, 100, random.Random(1))
        in_first = sum(1 for c in sample if max(c) < 12)
        assert 30 < in_first < 70  # equal blocks -> near-even split

    def test_deterministic_for_seed(self):
        g = gnp_graph(13, 0.5, seed=3)
        index = SCTIndex.build(g)
        paths = index.collect_paths(3)
        a = sample_k_cliques(paths, 3, 25, random.Random(7))
        b = sample_k_cliques(paths, 3, 25, random.Random(7))
        assert a == b


class TestAlgorithm:
    def test_empty_graph(self):
        result = sctl_star_sample(SCTIndex.build(Graph(4)), 3, sample_size=10)
        assert result.vertices == []

    def test_invalid_parameters(self):
        index = SCTIndex.build(Graph.complete(4))
        with pytest.raises(InvalidParameterError):
            sctl_star_sample(index, 3, sample_size=0)
        with pytest.raises(InvalidParameterError):
            sctl_star_sample(index, 3, sample_size=5, iterations=0)

    def test_reported_density_is_true_density(self):
        g = gnp_graph(16, 0.45, seed=4)
        index = SCTIndex.build(g)
        result = sctl_star_sample(index, 3, sample_size=50, iterations=5, seed=2)
        if result.vertices:
            sub, _ = g.induced_subgraph(result.vertices)
            assert count_k_cliques_naive(sub, 3) == result.clique_count

    @pytest.mark.parametrize("seed", range(4))
    def test_density_bounded_by_optimum(self, seed):
        g = gnp_graph(11, 0.55, seed=seed)
        index = SCTIndex.build(g)
        if index.max_clique_size < 3:
            pytest.skip("no triangle")
        _, optimal = densest_subgraph_bruteforce(g, 3)
        result = sctl_star_sample(index, 3, sample_size=200, iterations=10, seed=seed)
        assert result.density <= optimal + 1e-9

    def test_full_sample_recovers_good_solution(self, k6_plus_k4):
        index = SCTIndex.build(k6_plus_k4)
        # budget covers every clique: behaves like (unreduced) SCTL
        result = sctl_star_sample(index, 3, sample_size=10**6, iterations=10)
        assert result.density == pytest.approx(20 / 6)

    def test_deterministic_given_seed(self, caveman):
        index = SCTIndex.build(caveman)
        a = sctl_star_sample(index, 3, sample_size=40, iterations=5, seed=9)
        b = sctl_star_sample(index, 3, sample_size=40, iterations=5, seed=9)
        assert a.vertices == b.vertices
        assert a.clique_count == b.clique_count

    def test_partial_index_supported(self):
        g = gnp_graph(16, 0.45, seed=6)
        index = SCTIndex.build(g, threshold=4)
        result = sctl_star_sample(index, 4, sample_size=100, iterations=5)
        assert result.density >= 0.0

    def test_stats_recorded(self, caveman):
        index = SCTIndex.build(caveman)
        result = sctl_star_sample(index, 3, sample_size=30, iterations=5)
        assert result.stats["sampled_cliques"] <= 30
        assert result.stats["sampled_vertices"] >= 3
        assert "clique_visits" in result.stats

    def test_one_extraction_per_pass(self, caveman, monkeypatch):
        # recovery reuses the last pass's prefix instead of extracting
        # from the same weights again
        index = SCTIndex.build(caveman)
        calls = []
        original = sampling.best_prefix_from_cliques

        def counted(*args, **kwargs):
            prefix = original(*args, **kwargs)
            calls.append(prefix)
            return prefix

        monkeypatch.setattr(sampling, "best_prefix_from_cliques", counted)
        result = sctl_star_sample(index, 3, sample_size=40, iterations=7)
        assert len(calls) == 7
        assert result.vertices == sorted(calls[-1].vertices)
