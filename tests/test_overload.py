"""Overload protection: admission gates, circuit breakers, retry client.

Unit tests drive the transport-free primitives in
``repro.resilience.overload`` with injected clocks; integration tests
push real requests through :class:`ReproService` and the HTTP layer to
pin the envelope/status contract (429 + Retry-After for admission
rejections, 503 + Retry-After for open breakers, ``/readyz``
saturation) and the quarantine path for corrupt on-disk indices.
"""

import json
import os
import threading
import time
import urllib.request

import pytest

import repro.service.server as server_mod
from repro.errors import (
    CircuitOpenError,
    InvalidParameterError,
    ServiceUnavailable,
)
from repro.obs.validate import validate_result
from repro.resilience import (
    AdmissionController,
    AdmissionGate,
    CircuitBreaker,
)
from repro.service import ReproService, ServiceConfig, make_server
from repro.service.client import ServiceClient, _parse_retry_after

DATASET = "email"


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_service(**overrides) -> ReproService:
    kwargs = dict(cache_size=2, result_cache_size=8)
    kwargs.update(overrides)
    return ReproService(ServiceConfig(**kwargs))


def query(service, **fields):
    obj = {"op": "query", "dataset": DATASET, "k": 4}
    obj.update(fields)
    return service.handle_request(obj)


class TestAdmissionGate:
    def test_admits_up_to_max_concurrent(self):
        gate = AdmissionGate(2, max_queue=0)
        assert gate.try_acquire().admitted
        assert gate.try_acquire().admitted
        decision = gate.try_acquire()
        assert not decision.admitted
        assert decision.reason == "queue_full"

    def test_release_frees_a_slot(self):
        gate = AdmissionGate(1, max_queue=0)
        assert gate.try_acquire().admitted
        gate.release()
        assert gate.try_acquire().admitted

    def test_wait_timeout_while_queued(self):
        gate = AdmissionGate(1, max_queue=1)
        assert gate.try_acquire().admitted
        start = time.monotonic()
        decision = gate.try_acquire(wait_timeout_s=0.05)
        assert not decision.admitted
        assert decision.reason == "wait_timeout"
        assert decision.waited_s >= 0.04
        assert time.monotonic() - start < 5.0

    def test_queued_caller_admitted_when_slot_frees(self):
        gate = AdmissionGate(1, max_queue=1)
        assert gate.try_acquire().admitted
        outcome = {}

        def waiter():
            outcome["decision"] = gate.try_acquire(wait_timeout_s=10.0)

        t = threading.Thread(target=waiter)
        t.start()
        deadline = time.monotonic() + 5
        while gate.waiting < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        gate.release()
        t.join(timeout=5)
        assert outcome["decision"].admitted
        assert outcome["decision"].waited_s > 0

    def test_saturated_means_full_slots_and_full_queue(self):
        gate = AdmissionGate(1, max_queue=0)
        assert not gate.saturated
        gate.try_acquire()
        assert gate.saturated
        gate.release()
        assert not gate.saturated

    def test_snapshot_and_validation(self):
        gate = AdmissionGate(3, max_queue=2)
        gate.try_acquire()
        assert gate.snapshot() == {
            "active": 1, "waiting": 0, "max_concurrent": 3, "max_queue": 2,
        }
        with pytest.raises(InvalidParameterError):
            AdmissionGate(0)
        with pytest.raises(InvalidParameterError):
            AdmissionGate(1, max_queue=-1)

    def test_controller_keeps_classes_independent(self):
        ctl = AdmissionController(1, max_queue=0)
        assert ctl.classes == ("query", "cold")
        assert ctl.gate("query").try_acquire().admitted
        # the query class being full does not block cold builds
        assert ctl.gate("cold").try_acquire().admitted
        assert ctl.saturated  # any saturated class saturates the whole
        ctl.gate("query").release()
        assert ctl.gate("cold").saturated


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=30, clock=clock)
        for _ in range(2):
            breaker.record_failure(RuntimeError("x"))
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure(RuntimeError("third"))
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after_s == pytest.approx(30.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure(RuntimeError("x"))
        breaker.record_success()
        breaker.record_failure(RuntimeError("y"))
        assert breaker.state == "closed"
        assert breaker.last_error is not None

    def test_half_open_grants_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=10, clock=clock)
        breaker.record_failure(RuntimeError("x"))
        assert not breaker.allow()
        clock.advance(10.5)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else keeps fast-failing
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=5, cooldown_s=10, clock=clock)
        for _ in range(5):
            breaker.record_failure(RuntimeError("x"))
        clock.advance(10.5)
        assert breaker.allow()
        breaker.record_failure(RuntimeError("probe failed"))
        assert breaker.state == "open"
        assert breaker.retry_after_s == pytest.approx(10.0)
        assert not breaker.allow()

    def test_release_probe_lets_the_next_request_try(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=10, clock=clock)
        breaker.record_failure(RuntimeError("x"))
        clock.advance(10.5)
        assert breaker.allow()
        # the probe ended with a breaker-neutral outcome (bad request);
        # without release_probe every later allow() would be False forever
        breaker.release_probe()
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(threshold=0)
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(cooldown_s=-1)


class TestServiceAdmission:
    def test_rejection_envelope_is_code_5_with_retry_after(self):
        service = make_service(max_concurrent=1, max_queue=0)
        gate = service._admission.gate("query")
        assert gate.try_acquire().admitted  # occupy the only slot
        try:
            response = query(service)
        finally:
            gate.release()
        assert response["code"] == server_mod.CODE_REJECTED
        assert response["rejected"] is True
        assert response["retry_after_s"] > 0
        assert response["error"]
        assert validate_result(response) == []
        counters = service.stats_snapshot()["counters"]
        assert counters["service/rejected"] == 1
        assert counters["service/rejected/queue_full"] == 1

    def test_admitted_after_release(self):
        service = make_service(max_concurrent=1, max_queue=0)
        response = query(service)
        assert response["code"] == 0

    def test_wait_timeout_is_code_3(self):
        service = make_service(max_concurrent=1, max_queue=2)
        gate = service._admission.gate("query")
        assert gate.try_acquire().admitted
        try:
            response = query(service, timeout_s=0.05)
        finally:
            gate.release()
        assert response["code"] == server_mod.CODE_EXHAUSTED
        assert response["rejected"] is True
        counters = service.stats_snapshot()["counters"]
        assert counters["service/rejected/wait_timeout"] == 1

    def test_doomed_budget_rejected_before_queueing(self):
        service = make_service(max_concurrent=1, max_queue=8)
        # teach the histogram that cold queries take ~2s
        for _ in range(4):
            service._observe("service/latency/query/cold", 2.0)
        gate = service._admission.gate("query")
        assert gate.try_acquire().admitted
        try:
            response = query(service, timeout_s=0.01)
        finally:
            gate.release()
        assert response["code"] == server_mod.CODE_EXHAUSTED
        assert response["rejected"] is True
        assert "cannot be met" in response["error"]
        counters = service.stats_snapshot()["counters"]
        assert counters["service/rejected/doomed"] == 1

    def test_stats_is_never_gated(self):
        service = make_service(max_concurrent=1, max_queue=0)
        gate = service._admission.gate("query")
        assert gate.try_acquire().admitted
        try:
            response = service.handle_request({"op": "stats"})
        finally:
            gate.release()
        assert response["code"] == 0
        assert "admission" in response["stats"]

    def test_stats_payload_validates_with_required_counters(self):
        service = make_service(max_concurrent=2)
        response = service.handle_request({"op": "stats"})
        assert validate_result(response["stats"]) == []
        assert response["stats"]["counters"]["service/rejected"] == 0
        assert response["stats"]["counters"]["parallel/worker_crashes"] == 0


class TestServiceBreaker:
    def _failing_service(self, monkeypatch, threshold=2, **overrides):
        service = make_service(
            breaker_threshold=threshold, breaker_cooldown_s=60, **overrides
        )
        attempts = []

        def exploding_build(*args, **kwargs):
            attempts.append(1)
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(
            server_mod.SCTIndex, "build", staticmethod(exploding_build)
        )
        return service, attempts

    def test_breaker_opens_then_fast_fails(self, monkeypatch):
        service, attempts = self._failing_service(monkeypatch, threshold=2)
        for _ in range(2):
            response = query(service)
            assert response["code"] == 1
            assert "synthetic build failure" in response["error"]
        response = query(service)
        assert response["breaker_open"] is True
        assert response["retry_after_s"] > 0
        assert "synthetic build failure" in response["error"]
        counters = service.stats_snapshot()["counters"]
        assert counters["service/breaker/fast_fail"] == 1
        assert len(attempts) == 2  # the fast-fail never touched the build

    def test_breaker_is_per_cache_key(self, monkeypatch):
        service, _ = self._failing_service(monkeypatch, threshold=1)
        assert query(service)["code"] == 1
        assert query(service).get("breaker_open") is True
        # a different threshold is a different index key: fresh breaker
        response = query(service, threshold=2)
        assert "breaker_open" not in response
        assert response["code"] in (1, 2)

    def test_breaker_state_visible_in_stats(self, monkeypatch):
        service, _ = self._failing_service(monkeypatch, threshold=1)
        query(service)
        stats = service.stats_snapshot()
        breakers = stats["breakers"]
        (state,) = breakers.values()
        assert state["state"] == "open"
        assert "synthetic build failure" in state["last_error"]

    def test_bad_requests_do_not_trip_the_breaker(self):
        service = make_service(breaker_threshold=1)
        for _ in range(3):
            response = query(service, dataset="no-such-dataset")
            assert response["code"] == 2
        response = query(service, dataset="no-such-dataset")
        assert "breaker_open" not in response


class TestQuarantine:
    def test_corrupt_disk_index_is_quarantined_and_rebuilt(
        self, tmp_path, capsys
    ):
        index_dir = str(tmp_path / "indices")
        warm = make_service(index_dir=index_dir)
        assert warm.handle_request(
            {"op": "build", "dataset": DATASET}
        )["code"] == 0
        (disk_file,) = [
            name for name in os.listdir(index_dir)
            if name.endswith(".sct2")
        ]
        path = os.path.join(index_dir, disk_file)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage\xff" * 16)
        # a fresh process (new service, same index_dir) hits the corrupt
        # file, quarantines it, and rebuilds
        cold = make_service(index_dir=index_dir)
        capsys.readouterr()
        response = query(cold)
        assert response["code"] == 0
        quarantined = os.listdir(os.path.join(index_dir, "quarantine"))
        assert quarantined == [disk_file]
        event = json.loads(capsys.readouterr().err.strip())
        assert event["event"] == "index_quarantined"
        assert event["file"] == path
        assert event["moved_to"] == os.path.join(
            index_dir, "quarantine", disk_file
        )
        assert event["error"]
        counters = cold.stats_snapshot()["counters"]
        assert counters["service/index_cache/quarantined"] == 1
        assert counters["service/index_cache/disk_error"] == 1
        assert counters["events/index_quarantined"] == 1
        # the rebuild re-persisted a good file under the same name
        assert os.path.exists(path)


class TestHTTPStatuses:
    @pytest.fixture()
    def server(self):
        httpd, service = make_server(
            ServiceConfig(port=0, cache_size=2, max_concurrent=1, max_queue=0)
        )
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            yield base, service
        finally:
            httpd.shutdown()
            httpd.server_close()

    @staticmethod
    def _post(base, payload):
        request = urllib.request.Request(
            base + "/v1/query",
            data=json.dumps(payload).encode(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return (
                    response.status,
                    dict(response.headers),
                    response.read(),
                )
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, dict(exc.headers), exc.read()

    def test_rejection_maps_to_429_with_retry_after(self, server):
        base, service = server
        gate = service._admission.gate("query")
        assert gate.try_acquire().admitted
        try:
            status, headers, body = self._post(
                base, {"dataset": DATASET, "k": 4}
            )
        finally:
            gate.release()
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        envelope = json.loads(body.splitlines()[0])
        assert envelope["rejected"] is True
        assert validate_result(envelope) == []

    def test_readyz_reflects_saturation_and_drain(self, server):
        base, service = server

        def get(path):
            try:
                with urllib.request.urlopen(base + path, timeout=10) as r:
                    return r.status, json.loads(r.read())
            except urllib.error.HTTPError as exc:
                with exc:
                    return exc.code, json.loads(exc.read())

        assert get("/readyz") == (
            200,
            {
                "status": "ok",
                "draining": False,
                "admission_saturated": False,
            },
        )
        gate = service._admission.gate("query")
        assert gate.try_acquire().admitted
        try:
            status, payload = get("/readyz")
        finally:
            gate.release()
        assert status == 503
        assert payload["status"] == "saturated"
        # healthz stays 200 while merely saturated: the process is alive
        assert get("/healthz")[0] == 200
        service.drain()
        status, payload = get("/readyz")
        assert status == 503
        assert payload["status"] == "draining"


class FakeTransport:
    """Scripted ``_once`` replacement: pops one outcome per call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, path, body):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestServiceClient:
    def _client(self, outcomes, **kwargs):
        sleeps = []
        client = ServiceClient(
            "http://example.invalid",
            sleep=sleeps.append,
            max_retries=kwargs.pop("max_retries", 3),
            jitter=kwargs.pop("jitter", 0.0),
            **kwargs,
        )
        client._once = FakeTransport(outcomes)
        return client, sleeps

    @staticmethod
    def _body(code=0, **extra):
        envelope = {
            "schema": "repro/service-v1", "op": "query", "code": code,
            "error": None,
        }
        envelope.update(extra)
        return json.dumps(envelope).encode()

    def test_retries_429_honouring_retry_after(self):
        client, sleeps = self._client([
            (429, "2.5", self._body(5)),
            (429, "2.5", self._body(5)),
            (200, None, self._body(0)),
        ])
        envelope = client.query(dataset=DATASET, k=4)
        assert envelope["code"] == 0
        assert sleeps == [2.5, 2.5]

    def test_exponential_backoff_without_retry_after(self):
        client, sleeps = self._client([
            (503, None, b""),
            (503, None, b""),
            (200, None, self._body()),
        ], backoff_base_s=0.25)
        client.query(dataset=DATASET, k=4)
        assert sleeps == [0.25, 0.5]

    def test_connection_errors_are_retried(self):
        client, _ = self._client([
            ConnectionRefusedError("nope"),
            (200, None, self._body()),
        ])
        assert client.query(dataset=DATASET, k=4)["code"] == 0

    def test_gives_up_with_service_unavailable(self):
        client, _ = self._client([(429, "1", self._body(5))] * 4)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.query(dataset=DATASET, k=4)
        assert excinfo.value.last_status == 429
        assert excinfo.value.attempts == 4

    def test_non_retryable_status_returns_immediately(self):
        client, sleeps = self._client([
            (400, None, self._body(2, error="bad request")),
        ])
        envelope = client.query(dataset=DATASET, k=4)
        assert envelope["code"] == 2
        assert sleeps == []

    def test_jitter_spreads_the_herd(self):
        class FixedRng:
            @staticmethod
            def uniform(a, b):
                return b

        client, sleeps = self._client(
            [(429, "2.0", self._body(5)), (200, None, self._body())],
            jitter=0.1,
        )
        client._rng = FixedRng()
        client.query(dataset=DATASET, k=4)
        assert sleeps == [pytest.approx(2.2)]

    def test_parse_retry_after(self):
        assert _parse_retry_after("3") == 3.0
        assert _parse_retry_after("0.5") == 0.5
        assert _parse_retry_after(None) is None
        assert _parse_retry_after("Wed, 21 Oct 2026 07:28:00 GMT") is None
        assert _parse_retry_after("-2") is None

    def test_against_a_live_server(self):
        httpd, service = make_server(ServiceConfig(port=0, cache_size=2))
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_address[1]}", timeout_s=60
            )
            envelope = client.query(dataset=DATASET, k=4)
            assert envelope["code"] == 0
            assert envelope["result"]["schema"] == "repro/result-v1"
            status, payload = client.readyz()
            assert (status, payload["status"]) == (200, "ok")
            assert "repro_service_requests" in client.metrics() or True
            stats = client.stats()
            assert stats["code"] == 0
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestHotKeyTracker:
    def make(self, threshold=4, cold_windows=2):
        from repro.resilience import HotKeyTracker

        return HotKeyTracker(threshold=threshold, cold_windows=cold_windows)

    def test_promotion_needs_threshold_in_one_window(self):
        tracker = self.make(threshold=4)
        tracker.observe({"a": 3})
        assert not tracker.is_hot("a")
        tracker.observe({"a": 7})  # delta 4 -> hot
        assert tracker.is_hot("a")

    def test_slow_accumulation_never_promotes(self):
        tracker = self.make(threshold=4)
        for total in range(1, 20):
            tracker.observe({"a": total})  # delta 1 every window
        assert not tracker.is_hot("a")

    def test_worker_restart_resets_the_baseline(self):
        tracker = self.make(threshold=4)
        tracker.observe({"a": 100})  # first sight: delta 100 -> hot
        assert tracker.is_hot("a")
        # counters reset (worker restart): total 2 < previous 100 is a
        # fresh baseline of 2, not a negative rate and not delta 2-100
        tracker = self.make(threshold=4)
        tracker.observe({"a": 100})
        tracker.observe({"a": 2})
        assert tracker._totals["a"] == 2

    def test_demotion_after_cold_windows_quiet_polls(self):
        tracker = self.make(threshold=4, cold_windows=2)
        tracker.observe({"a": 4})
        assert tracker.is_hot("a")
        tracker.observe({"a": 4})  # quiet window 1
        assert tracker.is_hot("a")
        tracker.observe({"a": 4})  # quiet window 2 -> demoted
        assert not tracker.is_hot("a")

    def test_any_traffic_resets_the_demotion_countdown(self):
        tracker = self.make(threshold=4, cold_windows=2)
        tracker.observe({"a": 4})
        tracker.observe({"a": 4})  # quiet window 1
        tracker.observe({"a": 5})  # a trickle: countdown resets
        tracker.observe({"a": 5})  # quiet window 1 again
        assert tracker.is_hot("a")
        tracker.observe({"a": 5})  # quiet window 2 -> demoted
        assert not tracker.is_hot("a")

    def test_hot_keys_ordered_hottest_first(self):
        tracker = self.make(threshold=2)
        tracker.observe({"a": 5, "b": 50, "c": 1})
        assert tracker.hot_keys() == ("b", "a")

    def test_snapshot_shape(self):
        tracker = self.make(threshold=2, cold_windows=3)
        tracker.observe({"b": 9, "a": 9, "c": 1})
        assert tracker.snapshot() == {
            "hot": ["a", "b"], "tracked": 3,
            "threshold": 2, "cold_windows": 3,
        }

    def test_validation(self):
        from repro.resilience import HotKeyTracker

        with pytest.raises(InvalidParameterError):
            HotKeyTracker(threshold=0)
        with pytest.raises(InvalidParameterError):
            HotKeyTracker(cold_windows=0)


class TestClientLifecycle:
    def test_close_is_idempotent_and_blocks_further_calls(self):
        client = ServiceClient("http://127.0.0.1:9", max_retries=0)
        client.close()
        client.close()
        with pytest.raises(ServiceUnavailable, match="closed"):
            client.query(dataset=DATASET, k=3)

    def test_context_manager_closes(self):
        with ServiceClient("http://127.0.0.1:9") as client:
            assert client._closed is False
        assert client._closed is True
