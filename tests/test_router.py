"""RouterService: placement, failover, replication, fleet-wide updates.

These tests run real worker :class:`~repro.service.ReproService`
processes *in-process* (threaded HTTP servers on loopback port 0) and a
real :class:`~repro.service.RouterService` in front, so every forward
crosses a genuine socket — but everything stays in one pytest process
with no subprocess machinery (that end of the story lives in
``tests/test_fleet.py``).
"""

import itertools
import json
import threading

import pytest

from repro import SCTIndex, densest_subgraph
from repro.core import apply_edge_updates
from repro.graph import read_edge_list
from repro.obs.validate import validate_result
from repro.resilience.overload import CircuitBreaker
from repro.service import router as router_mod
from repro.service import (
    RouterConfig,
    ServiceClient,
    ServiceConfig,
    make_router,
    make_server,
)
from repro.service.hashring import graph_string, key_string, request_key


def two_clique_graph_file(tmp_path, name="two_clique.txt"):
    """Two K5s joined by a bridge — cheap and update-friendly."""
    edges = []
    for block in (range(0, 5), range(6, 11)):
        block = list(block)
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                edges.append((u, v))
    edges.append((5, 0))
    edges.append((5, 6))
    path = tmp_path / name
    path.write_text(
        "\n".join(f"{u} {v}" for u, v in edges) + "\n", encoding="utf-8"
    )
    return str(path)


class Fleet:
    """N in-process workers + a router, torn down deterministically."""

    def __init__(self, n=3, router_config=None, worker_id_prefix="w"):
        self.servers = []
        self.services = []
        self.workers = {}
        for i in range(n):
            server, service = make_server(
                ServiceConfig(port=0, worker_id=f"{worker_id_prefix}{i}")
            )
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            self.servers.append(server)
            self.services.append(service)
            port = server.server_address[1]
            self.workers[f"{worker_id_prefix}{i}"] = \
                f"http://127.0.0.1:{port}"
        self.router_server, self.router = make_router(
            router_config or RouterConfig(port=0), dict(self.workers)
        )
        threading.Thread(
            target=self.router_server.serve_forever, daemon=True
        ).start()
        self.endpoint = (
            f"http://127.0.0.1:{self.router_server.server_address[1]}"
        )

    def kill_worker(self, worker_id):
        """Hard-stop one worker's HTTP server (socket goes dead)."""
        index = list(self.workers).index(worker_id)
        self.servers[index].shutdown()
        self.servers[index].server_close()

    def close(self):
        self.router_server.shutdown()
        self.router_server.server_close()
        for server in self.servers:
            try:
                server.shutdown()
                server.server_close()
            except OSError:
                pass


@pytest.fixture
def fleet():
    f = Fleet(3)
    yield f
    f.close()


def owner_of(fleet, obj):
    return fleet.router.ring.owner(key_string(request_key(obj)))


class TestRouting:
    def test_forward_reaches_the_owner(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=2)
        out = client.query(dataset="email", k=3)
        assert out.ok
        assert out.served_by == owner_of(fleet, {"dataset": "email"})
        assert out.get("schema") == "repro/service-v1.1"
        assert isinstance(out.ring_epoch, int)
        assert validate_result(out) == []

    def test_each_key_resident_in_exactly_one_worker(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=2)
        requests = [
            {"dataset": "email", "k": 3},
            {"dataset": "email", "k": 3, "threshold": 2},
            {"dataset": "gowalla", "k": 3},
            {"dataset": "wikitalk", "k": 4},
        ]
        for obj in requests:
            assert client.query(**obj).ok
        # each canonical key's index lives on exactly one worker
        for obj in requests:
            key = request_key(obj)
            holders = [
                service.config.worker_id
                for service in fleet.services
                if key in [k for k in service._indices.keys()]
            ]
            assert holders == [owner_of(fleet, obj)]

    def test_identical_keys_share_one_index(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=2)
        a = client.query(dataset="email", k=3,
                         build_options={"x": 1, "y": 2})
        b = client.query(dataset="email", k=4,
                         build_options={"y": 2, "x": 1})
        assert a.ok and b.ok
        assert a.served_by == b.served_by  # same canonical key

    def test_router_rejects_malformed_requests(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=0)
        env = client.rpc("query", k=3)  # no graph source at all
        assert env.code == 2
        assert "dataset" in env.error
        assert validate_result(env) == []

    def test_stats_and_topology_validate(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=0)
        stats = client.stats()
        assert stats.get("stats", {}).get("schema") == \
            "repro/router-stats-v1"
        assert validate_result(stats) == []
        topo = client.topology()
        payload = topo["topology"]
        assert payload["schema"] == "repro/topology-v1"
        assert {w["id"] for w in payload["workers"]} == set(fleet.workers)
        assert validate_result(topo) == []

    def test_metrics_exposition_covers_router_series(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=2)
        assert client.query(dataset="email", k=3).ok
        text = client.metrics()
        assert "repro_router_requests_query_total" in text
        assert "repro_service_latency_query_cold" in text


class TestFailover:
    def test_worker_death_reassigns_and_recovers(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=3)
        obj = {"dataset": "email", "k": 3}
        first = client.query(**obj)
        assert first.ok
        victim = first.served_by
        epoch_before = fleet.router.ring.epoch
        fleet.kill_worker(victim)

        second = client.query(**obj)
        assert second.ok
        assert second.served_by != victim
        assert second.served_by in fleet.workers
        # the ring reassigned: victim is gone, epoch moved
        assert victim not in fleet.router.ring
        assert second.ring_epoch > epoch_before
        assert validate_result(second) == []

    def test_all_workers_dead_yields_an_error_envelope(self, fleet):
        for worker_id in list(fleet.workers):
            fleet.kill_worker(worker_id)
        client = ServiceClient(fleet.endpoint, max_retries=0)
        env = client.rpc("query", dataset="email", k=3)
        assert env.code == 1
        assert not env.ok
        assert validate_result(env) == []


class TestFleetUpdates:
    def test_update_fans_out_and_stays_monotonic(self, fleet, tmp_path):
        path = two_clique_graph_file(tmp_path)
        client = ServiceClient(fleet.endpoint, max_retries=2)
        assert client.query(path=path, k=5).ok

        up1 = client.update(deletes=[[6, 7]], path=path)
        assert up1.applied and up1.graph_version == 1
        up2 = client.update(inserts=[[6, 7]], deletes=[[7, 8]], path=path)
        assert up2.applied and up2.graph_version == 2
        assert up2.get("fanout") == {"replicas": [], "dropped": []}
        assert validate_result(up2) == []

        # the router recorded a replayable log for this graph
        graph = graph_string(key_string(request_key({"path": path})))
        assert len(fleet.router._update_log[graph]) == 2

        warm = client.query(path=path, k=5)
        assert warm.ok and warm.graph_version == 2

    def test_replica_promotion_replays_updates(self, fleet, tmp_path):
        path = two_clique_graph_file(tmp_path)
        client = ServiceClient(fleet.endpoint, max_retries=2)
        obj = {"path": path, "k": 5}
        assert client.query(**obj).ok
        assert client.update(deletes=[[6, 7]], path=path).applied

        # drive the key hot, then let the poll loop promote a replica
        for _ in range(router_mod._HOT_KEY_THRESHOLD + 2):
            assert client.query(**obj).ok
        fleet.router.poll_once()

        key = key_string(request_key(obj))
        replicas = fleet.router._replicas.get(key)
        assert replicas, "hot key was not promoted"
        owner = fleet.router.ring.owner(key)
        assert owner not in replicas  # replica set disjoint from owner
        # the replica was converged to the owner's graph_version before
        # being marked servable
        graph = graph_string(key)
        for worker_id in replicas:
            assert fleet.router._converged[(worker_id, graph)] == 1

        # a later update fans out to the replica too
        up = client.update(inserts=[[6, 7]], path=path)
        assert up.applied and up.graph_version == 2
        assert up["fanout"]["replicas"] == replicas

        # reads round-robin over owner + replica; cached answers may
        # echo the version they were computed against (that is the v1
        # contract), but nothing may report a version that never existed
        served, versions = set(), set()
        for _ in range(6):
            out = client.query(**obj)
            assert out.ok
            served.add(out.served_by)
            versions.add(out.graph_version)
        assert served == {owner, *replicas}
        assert versions <= {1, 2}

        # a FRESH result key forces a compute on whichever worker
        # serves it: owner and replica must both be at version 2
        fresh_versions = {
            client.query(path=path, k=4).graph_version for _ in range(6)
        }
        assert fresh_versions == {2}

    def test_owner_death_fails_over_to_warm_replica(self, fleet, tmp_path):
        path = two_clique_graph_file(tmp_path)
        client = ServiceClient(fleet.endpoint, max_retries=3)
        obj = {"path": path, "k": 5}
        assert client.query(**obj).ok
        assert client.update(deletes=[[6, 7]], path=path).applied
        for _ in range(router_mod._HOT_KEY_THRESHOLD + 2):
            client.query(**obj)
        fleet.router.poll_once()

        key = key_string(request_key(obj))
        owner = fleet.router.ring.owner(key)
        replicas = fleet.router._replicas.get(key)
        assert replicas
        # the replica sits at preference[1]: killing the owner makes it
        # the new owner, with the post-update index already warm
        assert fleet.router.ring.preference(key, 2)[1] == replicas[0]
        fleet.kill_worker(owner)
        out = client.query(**obj)
        assert out.ok
        assert out.served_by == replicas[0]
        assert out.graph_version == 1  # replayed history survived


class TestCrossKeyConvergence:
    def test_other_key_of_an_updated_graph_reads_the_committed_version(
        self, fleet, tmp_path
    ):
        # a graph file whose threshold-1 key has another owner than its
        # default key, so that owner never sees the update's forward
        for i in itertools.count():
            path = two_clique_graph_file(tmp_path, name=f"two_clique{i}.txt")
            updater = owner_of(fleet, {"path": path})
            reader = owner_of(fleet, {"path": path, "threshold": 1})
            if reader != updater:
                break
        client = ServiceClient(fleet.endpoint, max_retries=2)
        before = client.query(path=path, k=3)
        assert before.ok and before.graph_version == 0
        up = client.update(path=path, deletes=[[0, 1], [6, 7]])
        assert up.applied and up.graph_version == 1
        assert up.served_by == updater

        out = client.query(path=path, k=3, threshold=1)
        assert out.ok, out.error
        assert out.served_by == reader
        assert out.graph_version == 1
        # the answer is the one an offline run gives on the updated graph
        graph, _, _ = apply_edge_updates(
            read_edge_list(path), deletes=[(0, 1), (6, 7)]
        )
        offline = densest_subgraph(
            graph, 3, method="sctl*", iterations=10,
            index=SCTIndex.build(graph, threshold=1),
        )
        assert out.result.vertices == offline.vertices
        assert out.result.clique_count == offline.clique_count == 14
        assert validate_result(out) == []


class TestUpdateLogCap:
    def test_heir_past_the_cap_is_refused_not_served_stale(
        self, fleet, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(router_mod, "_UPDATE_LOG_CAP", 2)
        path = two_clique_graph_file(tmp_path)
        client = ServiceClient(fleet.endpoint, max_retries=3)
        obj = {"path": path, "k": 5}
        assert client.query(**obj).ok
        batches = ({"deletes": [[6, 7]]}, {"inserts": [[6, 7]]},
                   {"deletes": [[7, 8]]})
        for version, batch in enumerate(batches, 1):
            up = client.update(path=path, **batch)
            assert up.applied and up.graph_version == version
        graph = graph_string(key_string(request_key(obj)))
        assert len(fleet.router._update_log[graph]) == 2  # one past the cap

        owner = owner_of(fleet, obj)
        fleet.kill_worker(owner)
        # a fresh read: the heir can replay versions 1-2 but not 3
        out = client.query(path=path, k=4)
        assert out.code == 1 and not out.ok, (out.code, out.graph_version)
        assert "applied 2 of the 3 committed update batches" in out.error
        assert validate_result(out) == []
        heir = owner_of(fleet, obj)
        assert heir != owner
        # updates to the graph are refused on the heir too
        up = client.update(path=path, inserts=[[7, 8]])
        assert up.code == 1 and not up.applied
        assert validate_result(up) == []

        # being behind is not a failure: the heir keeps its place in the
        # ring and its breaker stays closed
        assert heir in fleet.router.ring
        assert fleet.router._workers[heir].breaker.state == CircuitBreaker.CLOSED
        stats = fleet.router.stats_snapshot()
        assert stats["counters"]["router/update_log/refused"] == 2
        assert stats["counters"]["router/update_log/overflow"] == 1
        assert stats["counters"]["events/update_log_refused"] == 2


class TestHotKeyDemotion:
    def test_cold_key_loses_its_replica(self, fleet):
        client = ServiceClient(fleet.endpoint, max_retries=2)
        obj = {"dataset": "email", "k": 3}
        for _ in range(router_mod._HOT_KEY_THRESHOLD + 2):
            client.query(**obj)
        fleet.router.poll_once()
        key = key_string(request_key(obj))
        assert fleet.router._replicas.get(key)
        # quiet for cold_windows polls -> demoted (the promotion's own
        # build request counts as one last hit, hence the extra poll)
        for _ in range(router_mod._HOT_KEY_COLD_WINDOWS + 1):
            fleet.router.poll_once()
        assert key not in fleet.router._replicas


class TestDraining:
    def test_draining_router_refuses_with_valid_envelopes(self, fleet):
        fleet.router.drain()
        client = ServiceClient(fleet.endpoint, max_retries=0)
        status, payload = client.healthz()
        assert status == 503
        # over HTTP a draining router answers 503 (retryable); the
        # envelope itself stays well-formed
        env = fleet.router.handle_request(
            {"op": "query", "dataset": "email", "k": 3}
        )
        assert env["code"] == 1 and "draining" in env["error"]
        assert validate_result(env) == []
