"""The all-k density profile API."""

import pytest

from repro import RunOptions
from repro.core import SCTIndex
from repro.core.profile import DensityProfile, density_profile
from repro.errors import IndexQueryError, InvalidParameterError
from repro.graph import Graph, relaxed_caveman_graph
from repro.graph.generators import overlapping_community_graph
from repro.obs import MetricsRecorder


class TestDensityProfile:
    def test_covers_default_range(self, caveman):
        index = SCTIndex.build(caveman)
        profile = density_profile(index, iterations=5)
        assert profile.k_values() == list(range(3, index.max_clique_size + 1))

    def test_explicit_k_values(self, caveman):
        index = SCTIndex.build(caveman)
        profile = density_profile(index, k_values=[3, 5], iterations=5)
        assert profile.k_values() == [3, 5]

    def test_invalid_k(self, caveman):
        index = SCTIndex.build(caveman)
        with pytest.raises(InvalidParameterError):
            density_profile(index, k_values=[0])

    @pytest.mark.parametrize(
        "k_values, error",
        [([5, 6, 4], IndexQueryError), ([5, 6, 0], InvalidParameterError)],
    )
    def test_every_k_checked_before_the_first_run(self, k_values, error):
        graph = overlapping_community_graph(
            600, 40, 20, 0.55, memberships=2, seed=1
        )
        index = SCTIndex.build(graph, threshold=5)
        rec = MetricsRecorder()
        with pytest.raises(error):
            density_profile(
                index, k_values, iterations=3, options=RunOptions(recorder=rec)
            )
        assert not any(path.startswith("profile/k/") for path in rec.span_totals())

    def test_densest_k_picks_max(self):
        g = relaxed_caveman_graph(5, 7, 0.05, seed=1)
        index = SCTIndex.build(g)
        profile = density_profile(index, iterations=8)
        best = profile.densest_k()
        best_density = profile.results[best].density_fraction
        assert all(
            profile.results[k].density_fraction <= best_density
            for k in profile.k_values()
        )

    def test_as_rows_shape(self, caveman):
        index = SCTIndex.build(caveman)
        profile = density_profile(index, k_values=[3], iterations=3)
        rows = profile.as_rows()
        assert len(rows) == 1
        k, size, count, density = rows[0]
        assert k == 3
        assert density == pytest.approx(count / size)

    def test_partial_index_default_range_respects_threshold(self):
        g = relaxed_caveman_graph(5, 7, 0.05, seed=2)
        index = SCTIndex.build(g, threshold=5)
        profile = density_profile(index, iterations=3)
        assert min(profile.k_values()) == 5

    def test_empty_graph(self):
        index = SCTIndex.build(Graph(4))
        profile = density_profile(index, iterations=2)
        assert profile.results == {} or all(
            r.density == 0 for r in profile.results.values()
        )
