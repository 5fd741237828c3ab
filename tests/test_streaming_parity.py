"""The index's own paths vs pre-collected ``paths=``: results must be identical.

An SCTL-family query fills one path table by one walk of the index, or —
when the table would outgrow the index — walks the tree again on every
sweep, packing the stream into bounded tables as it reads it.
``iter_paths`` traversal order is deterministic, so either source replays
the exact sequence a collected list would — the source must therefore
change *nothing* observable: same vertices, same counts, same stats, same
densities.
"""

from itertools import combinations

import pytest

from repro.core import SCTIndex, sctl, sctl_plus, sctl_star, sctl_star_sample
from repro.graph import Graph


def _assert_identical(streamed, collected):
    assert streamed.vertices == collected.vertices
    assert streamed.clique_count == collected.clique_count
    assert streamed.density_fraction == collected.density_fraction
    assert streamed.iterations == collected.iterations
    assert streamed.stats == collected.stats


class TestSctlStarParity:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_small_random(self, small_random, k):
        index = SCTIndex.build(small_random)
        streamed = sctl_star(index, k, iterations=5)
        collected = sctl_star(index, k, iterations=5, paths=index.collect_paths(k))
        _assert_identical(streamed, collected)

    @pytest.mark.parametrize("k", [3, 4])
    def test_caveman(self, caveman, k):
        index = SCTIndex.build(caveman)
        streamed = sctl_star(index, k, iterations=4)
        collected = sctl_star(index, k, iterations=4, paths=index.collect_paths(k))
        _assert_identical(streamed, collected)


class TestSctlStarSampleParity:
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_same_sample_same_result(self, small_random, k, seed):
        index = SCTIndex.build(small_random)
        streamed = sctl_star_sample(
            index, k, sample_size=200, iterations=4, seed=seed
        )
        collected = sctl_star_sample(
            index, k, sample_size=200, iterations=4, seed=seed,
            paths=index.collect_paths(k),
        )
        _assert_identical(streamed, collected)

    def test_sample_smaller_than_population(self, caveman):
        # sample_size below the clique count exercises the allocation RNG:
        # the streamed two-pass draw must consume it identically
        index = SCTIndex.build(caveman)
        k = 3
        assert index.count_k_cliques(k) > 50
        streamed = sctl_star_sample(index, k, sample_size=50, iterations=3, seed=5)
        collected = sctl_star_sample(
            index, k, sample_size=50, iterations=3, seed=5,
            paths=index.collect_paths(k),
        )
        _assert_identical(streamed, collected)


class TestSctlFamilyParity:
    @pytest.mark.parametrize("k", [3, 4])
    def test_sctl(self, small_random, k):
        index = SCTIndex.build(small_random)
        streamed = sctl(index, k, iterations=4)
        collected = sctl(index, k, iterations=4, paths=index.collect_paths(k))
        _assert_identical(streamed, collected)

    @pytest.mark.parametrize("k", [3, 4])
    def test_sctl_plus(self, small_random, k):
        index = SCTIndex.build(small_random)
        streamed = sctl_plus(index, k, iterations=4)
        collected = sctl_plus(index, k, iterations=4, paths=index.collect_paths(k))
        _assert_identical(streamed, collected)


class TestPathViewReiteration:
    def test_view_replays_identically(self, small_random):
        index = SCTIndex.build(small_random)
        view = index.path_view(4)
        first = [(p.holds, p.pivots) for p in view]
        second = [(p.holds, p.pivots) for p in view]
        assert first == second
        assert first == [(p.holds, p.pivots) for p in index.iter_paths(4)]
        assert first == [
            (p.holds, p.pivots) for p in index.collect_paths(4)
        ]


class TestStreamedTablesParity:
    """K_{14x2} at k=14: a table would outgrow the index, so the streamed
    side walks the tree per sweep and packs it into bounded tables."""

    @pytest.fixture(scope="class")
    def index(self):
        return SCTIndex.build(Graph.from_edges(
            [(u, v) for u, v in combinations(range(28), 2) if u // 2 != v // 2]
        ))

    @pytest.mark.parametrize("fn", [sctl, sctl_plus, sctl_star])
    def test_refinement(self, index, fn):
        streamed = fn(index, 14, iterations=3)
        collected = fn(index, 14, iterations=3, paths=index.collect_paths(14))
        _assert_identical(streamed, collected)

    def test_sample(self, index):
        streamed = sctl_star_sample(
            index, 14, sample_size=3000, iterations=3, seed=4
        )
        collected = sctl_star_sample(
            index, 14, sample_size=3000, iterations=3, seed=4,
            paths=index.collect_paths(14),
        )
        _assert_identical(streamed, collected)
