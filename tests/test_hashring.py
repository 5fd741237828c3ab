"""Consistent-hash ring: placement determinism, movement bounds, keys.

The ring is the fleet's single source of placement truth — the same
membership gives the same owner in any process — so these tests pin
(a) exact deterministic placements (a snapshot that must never drift
across Python versions or refactors), (b) the
consistent-hashing contract that a membership change moves at most
~1/N of the keyspace, and (c) the replica/failover geometry that warm
replicas rely on.
"""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.service.hashring import (
    HashRing,
    graph_string,
    key_string,
    parse_key_string,
    request_key,
)


def _keys(n):
    return [
        key_string((("dataset", f"g{i}"), i % 3, "{}")) for i in range(n)
    ]


class TestRequestKey:
    def test_matches_server_cache_key_shape(self):
        key = request_key(
            {"dataset": "email", "threshold": 2,
             "build_options": {"b": 1, "a": 2}}
        )
        assert key == (
            ("dataset", "email"), 2, json.dumps({"a": 2, "b": 1},
                                                sort_keys=True),
        )

    def test_build_options_order_is_canonical(self):
        a = request_key({"dataset": "d", "build_options": {"x": 1, "y": 2}})
        b = request_key({"dataset": "d", "build_options": {"y": 2, "x": 1}})
        assert a == b

    def test_path_and_dataset_are_exclusive(self):
        with pytest.raises(InvalidParameterError):
            request_key({})
        with pytest.raises(InvalidParameterError):
            request_key({"dataset": "d", "path": "p"})

    def test_key_string_round_trips(self):
        obj = {"path": "/tmp/g.txt", "threshold": 3,
               "build_options": {"opt": True}}
        canonical = key_string(request_key(obj))
        fields = parse_key_string(canonical)
        assert fields == {
            "path": "/tmp/g.txt", "threshold": 3,
            "build_options": {"opt": True},
        }
        assert key_string(request_key(fields)) == canonical

    def test_graph_string_groups_by_source(self):
        k0 = key_string(request_key({"dataset": "email", "threshold": 0}))
        k2 = key_string(request_key({"dataset": "email", "threshold": 2}))
        assert k0 != k2
        assert graph_string(k0) == graph_string(k2)


class TestPlacementDeterminism:
    # an exact placement snapshot: if this drifts, every deployed
    # router/client pair disagrees about ownership mid-rollout
    SNAPSHOT = {
        '[["dataset", "g0"], 0, "{}"]': "w0",
        '[["dataset", "g1"], 1, "{}"]': "w1",
        '[["dataset", "g2"], 2, "{}"]': "w2",
        '[["dataset", "g3"], 0, "{}"]': "w1",
        '[["dataset", "g4"], 1, "{}"]': "w0",
        '[["dataset", "g5"], 2, "{}"]': "w3",
        '[["dataset", "g6"], 0, "{}"]': "w0",
        '[["dataset", "g7"], 1, "{}"]': "w3",
    }

    def test_pinned_snapshot(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        placed = {key: ring.owner(key) for key in self.SNAPSHOT}
        assert placed == self.SNAPSHOT

    def test_join_order_is_irrelevant(self):
        keys = _keys(200)
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_every_key_has_exactly_one_owner(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for key in _keys(100):
            owner = ring.owner(key)
            assert owner in ("w0", "w1", "w2", "w3")
            # ask twice: placement is a pure function
            assert ring.owner(key) == owner

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.owner("anything") is None
        assert ring.preference("anything") == []
        assert len(ring) == 0


class TestMovementBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_join_moves_at_most_2_over_n(self, n):
        # property: adding one worker to an n-node ring remaps at most
        # 2/n of a large keyspace (expectation is 1/(n+1); 2/n is the
        # hard bound the acceptance criteria pin)
        keys = _keys(600)
        ring = HashRing([f"w{i}" for i in range(n)])
        before = {k: ring.owner(k) for k in keys}
        ring.add("joiner")
        moved = sum(1 for k in keys if ring.owner(k) != before[k])
        assert moved / len(keys) <= 2 / n
        # every moved key moved TO the joiner (no shuffling of the rest)
        for k in keys:
            if ring.owner(k) != before[k]:
                assert ring.owner(k) == "joiner"

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_leave_moves_only_the_dead_workers_keys(self, n):
        keys = _keys(600)
        ring = HashRing([f"w{i}" for i in range(n)])
        before = {k: ring.owner(k) for k in keys}
        ring.remove("w0")
        for k in keys:
            if before[k] == "w0":
                assert ring.owner(k) != "w0"
            else:
                assert ring.owner(k) == before[k]
        moved = sum(1 for k in keys if before[k] == "w0")
        assert moved / len(keys) <= 2 / n

    def test_epoch_bumps_only_on_real_changes(self):
        ring = HashRing(["w0", "w1"])
        epoch = ring.epoch
        assert ring.add("w0") is False
        assert ring.remove("missing") is False
        assert ring.epoch == epoch
        assert ring.add("w2") is True
        assert ring.remove("w0") is True
        assert ring.epoch == epoch + 2


class TestPreference:
    def test_replica_set_is_disjoint_from_owner(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for key in _keys(100):
            prefs = ring.preference(key, 3)
            assert prefs[0] == ring.owner(key)
            assert len(prefs) == len(set(prefs)) == 3
            assert ring.owner(key) not in prefs[1:]

    def test_preference_capped_by_member_count(self):
        ring = HashRing(["w0", "w1"])
        prefs = ring.preference("some-key", 5)
        assert len(prefs) == 2
        assert set(prefs) == {"w0", "w1"}

    def test_owner_death_promotes_preference_1(self):
        # the warm-replica invariant: when the owner leaves, the old
        # preference[1] becomes the new owner, so a replica parked
        # there serves the key with zero cold time
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for key in _keys(60):
            owner, runner_up = ring.preference(key, 2)
            ring.remove(owner)
            assert ring.owner(key) == runner_up
            ring.add(owner)


class TestValidation:
    def test_vnodes_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            HashRing(vnodes=0)

    def test_node_names_must_be_non_empty_strings(self):
        ring = HashRing()
        with pytest.raises(InvalidParameterError):
            ring.add("")
        with pytest.raises(InvalidParameterError):
            ring.add(7)

    def test_snapshot_shape(self):
        ring = HashRing(["w1", "w0"])
        assert ring.snapshot() == {
            "epoch": 2, "nodes": ["w0", "w1"], "vnodes": 64,
        }
