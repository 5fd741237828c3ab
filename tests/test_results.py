"""The versioned result contract: repro.results / repro/result-v1."""

import dataclasses
import json

import pytest

import repro
from repro.errors import InvalidParameterError
from repro.graph import relaxed_caveman_graph
from repro.obs.validate import validate_result
from repro.results import (
    RESULT_SCHEMA,
    DenseSubgraphResult,
    PartialResult,
)


def make_result(**overrides):
    kwargs = dict(
        vertices=[1, 2, 3, 4],
        clique_count=4,
        k=3,
        algorithm="SCTL*",
        iterations=7,
        upper_bound=1.5,
        exact=False,
    )
    kwargs.update(overrides)
    return DenseSubgraphResult(**kwargs)


class TestContract:
    def test_frozen(self):
        result = make_result()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.k = 9

    def test_timings_stay_mutable_and_excluded_from_equality(self):
        a = make_result()
        b = make_result()
        a.timings["total_s"] = 1.23
        assert a == b

    def test_stats_excluded_from_equality(self):
        # instrumentation, like timings, is not part of a result's identity
        assert make_result(stats={"weights": [1, 2]}) == make_result()

    def test_method_normalizes_algorithm_name(self):
        assert make_result(algorithm="SCTL*-Exact").method == "sctl*-exact"
        assert make_result(algorithm="KCL Sample").method == "kclsample"

    def test_density_is_exact(self):
        result = make_result(vertices=[1, 2, 3], clique_count=1)
        assert result.density_fraction.numerator == 1
        assert result.density_fraction.denominator == 3


class TestWireEncoding:
    def test_schema_field_first(self):
        payload = make_result().to_dict()
        assert next(iter(payload)) == "schema"
        assert payload["schema"] == RESULT_SCHEMA

    def test_round_trip(self):
        result = make_result()
        back = DenseSubgraphResult.from_json(result.to_json())
        assert back == result
        assert not back.is_partial

    def test_round_trip_partial(self):
        partial = PartialResult(
            vertices=[5, 6], clique_count=1, k=3, algorithm="SCTL",
            reason="deadline", stage="refine/3",
        )
        payload = partial.to_dict()
        assert payload["partial"] is True
        back = DenseSubgraphResult.from_dict(payload)
        assert isinstance(back, PartialResult)
        assert back.reason == "deadline"
        assert back.stage == "refine/3"
        assert "[partial: deadline at refine/3]" in back.summary()

    def test_stats_excluded_unless_asked(self):
        result = make_result(stats={"weights": [1, 2]})
        assert "stats" not in result.to_dict()
        assert result.to_dict(include_stats=True)["stats"] == {
            "weights": [1, 2]
        }

    def test_unknown_schema_rejected(self):
        payload = make_result().to_dict()
        payload["schema"] = "repro/result-v99"
        with pytest.raises(InvalidParameterError, match="result-v99"):
            DenseSubgraphResult.from_dict(payload)

    def test_missing_required_field_rejected(self):
        payload = make_result().to_dict()
        del payload["vertices"]
        with pytest.raises(InvalidParameterError, match="vertices"):
            DenseSubgraphResult.from_dict(payload)

    def test_unknown_sibling_keys_ignored(self):
        payload = make_result().to_dict()
        payload["query_time_s"] = 0.25  # the CLI adds this
        assert DenseSubgraphResult.from_dict(payload) == make_result()


class TestEntryPointsReturnTheContract:
    @pytest.fixture(scope="class")
    def graph(self):
        return relaxed_caveman_graph(4, 6, 0.1, seed=3)

    @pytest.mark.parametrize(
        "method", ["sctl", "sctl*", "sctl*-sample", "sctl*-exact", "kcl"]
    )
    def test_facade_returns_dense_subgraph_result(self, graph, method):
        result = repro.densest_subgraph(graph, 3, method=method)
        assert isinstance(result, DenseSubgraphResult)
        assert validate_result(result.to_dict()) == []
        # every entry point's result survives the wire both ways
        assert DenseSubgraphResult.from_json(result.to_json()) == result
        payload = result.to_dict()
        assert DenseSubgraphResult.from_dict(payload).to_dict() == payload

    def test_facade_stamps_timings(self, graph):
        result = repro.densest_subgraph(graph, 3, method="sctl*")
        assert result.timings["total_s"] > 0
        assert result.timings["index_build_s"] > 0

    def test_no_index_build_timing_when_index_supplied(self, graph):
        index = repro.SCTIndex.build(graph)
        result = repro.densest_subgraph(graph, 3, method="sctl*", index=index)
        assert "index_build_s" not in result.timings
        assert result.timings["total_s"] > 0


class TestValidator:
    def test_accepts_good_payload(self):
        assert validate_result(make_result().to_dict()) == []

    def test_rejects_size_mismatch(self):
        payload = make_result().to_dict()
        payload["size"] = 99
        assert any("size" in err for err in validate_result(payload))

    def test_rejects_density_mismatch(self):
        payload = make_result().to_dict()
        payload["density"] = 123.0
        assert any("density" in err for err in validate_result(payload))

    def test_rejects_unknown_schema(self):
        assert any(
            "unknown payload schema" in err
            for err in validate_result({"schema": "repro/result-v99"})
        )

    def test_validator_main_on_json_file(self, tmp_path, capsys):
        from repro.obs.validate import main

        path = tmp_path / "result.json"
        path.write_text(json.dumps(make_result().to_dict()))
        assert main(["--result", str(path)]) == 0
        bad = tmp_path / "bad.json"
        payload = make_result().to_dict()
        payload["size"] = 99
        bad.write_text(json.dumps(payload))
        assert main(["--result", str(bad)]) == 1
