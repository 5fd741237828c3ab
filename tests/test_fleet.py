"""Fleet integration: real worker subprocesses, chaos, whole-fleet drain.

``tests/test_router.py`` covers routing semantics with in-process
workers; this file crosses the process boundary.  A
:class:`~repro.service.FleetManager` spawns genuine
``python -m repro serve --role worker`` children, an in-process router
routes to them over real sockets — also under load from several client
threads while a worker is SIGKILLed — and the CLI-level test drives
``serve --role router --fleet N`` end to end including the
SIGTERM-drains-everything contract.
"""

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.obs.validate import validate_result
from repro.service import (
    FleetManager,
    RouterConfig,
    ServiceClient,
    make_router,
)
from repro.service.hashring import key_string, request_key

DATASET = "email"


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


class TestFleetManager:
    def test_cross_process_routing_and_sigkill_recovery(self, tmp_path):
        manager = FleetManager(2, index_dir=str(tmp_path / "fleet"))
        try:
            workers = manager.start()
            assert sorted(workers) == ["w0", "w1"]
            assert all(manager.alive(w) for w in workers)
            server, router = make_router(
                RouterConfig(port=0), workers, manager=manager
            )
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            try:
                endpoint = f"http://127.0.0.1:{server.server_address[1]}"
                client = ServiceClient(endpoint, max_retries=3, timeout_s=60)
                first = client.query(dataset=DATASET, k=3)
                assert first.ok
                assert first.served_by in workers
                assert first.get("schema") == "repro/service-v1.1"
                assert validate_result(first) == []

                # chaos: SIGKILL whichever worker served, mid-run
                victim = first.served_by
                assert manager.kill(victim) is True
                assert manager.alive(victim) is False
                second = client.query(dataset=DATASET, k=3)
                assert second.ok
                assert second.served_by != victim
                assert victim not in router.ring
                assert validate_result(second) == []
            finally:
                server.shutdown()
                server.server_close()
        finally:
            manager.terminate()

    def test_alive_reads_false_while_another_thread_reaps(self):
        manager = FleetManager(1)
        try:
            (worker_id,) = manager.start()
            proc = manager._procs[worker_id]
            killed = []
            killer = threading.Thread(
                target=lambda: killed.append(manager.kill(worker_id))
            )
            # hold the reap as Popen.wait() does: Popen.poll() cannot
            # take the waitpid lock meanwhile, and reads None
            with proc._waitpid_lock:
                killer.start()
                deadline = time.monotonic() + 30
                # wait for the exit without reaping it
                while os.waitid(
                    os.P_PID, proc.pid,
                    os.WEXITED | os.WNOHANG | os.WNOWAIT,
                ) is None:
                    assert time.monotonic() < deadline, "worker never died"
                    time.sleep(0.01)
                assert manager.alive(worker_id) is False
            killer.join(timeout=30)
            assert killed == [True]
            assert manager.alive(worker_id) is False
        finally:
            manager.terminate()

    def test_terminate_reaps_every_worker(self):
        manager = FleetManager(2)
        workers = manager.start()
        assert len(workers) == 2
        manager.terminate()
        assert all(not manager.alive(w) for w in workers)


def _drive(endpoint, requests, threads, on_done=None, timeout_s=120.0):
    """Send ``requests`` from ``threads`` client threads, each taking the
    next one when its last returns.  Returns the ``(request, envelope or
    exception)`` pair of every request that completed within
    ``timeout_s``; ``on_done(count)`` runs after each completion."""
    todo = queue.Queue()
    for obj in requests:
        todo.put(obj)
    outcomes = []
    lock = threading.Lock()

    def client_loop():
        with ServiceClient(endpoint, max_retries=3, timeout_s=60) as client:
            while True:
                try:
                    obj = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    out = client.query(**obj)
                except Exception as exc:  # noqa: BLE001 - kept, not lost
                    out = exc
                with lock:
                    outcomes.append((obj, out))
                    count = len(outcomes)
                if on_done is not None:
                    on_done(count)

    pool = [
        threading.Thread(target=client_loop, daemon=True)
        for _ in range(threads)
    ]
    for thread in pool:
        thread.start()
    deadline = time.monotonic() + timeout_s
    for thread in pool:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    with lock:
        return list(outcomes)


def _assert_all_answered(requests, outcomes):
    assert len(outcomes) == len(requests), "hung requests"
    for obj, out in outcomes:
        assert not isinstance(out, Exception), (obj, out)
        assert validate_result(out) == [], obj
        assert out.ok, (obj, out.code, out.error)


class TestFleetUnderLoad:
    """Router + 2 worker processes, 4 client threads, a SIGKILL mid-run."""

    THREADS = 4
    KILL_AFTER = 4  # completed requests before the kill

    def test_sigkill_mid_load_loses_no_request(self):
        # mixed cold and warm: 4 index keys (distinct build_options),
        # each asked 4 times, interleaved
        mixed = [
            {"dataset": DATASET, "k": 4, "build_options": {"arm": i % 4}}
            for i in range(16)
        ]
        manager = FleetManager(2)
        try:
            workers = manager.start()
            server, router = make_router(
                RouterConfig(port=0), workers, manager=manager
            )
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            closer = threading.Thread(target=server.server_close)
            try:
                endpoint = f"http://127.0.0.1:{server.server_address[1]}"
                # the victim owns the first key: both rounds route to it
                victim = router.ring.owner(key_string(request_key(mixed[0])))
                killed = []

                def kill_mid_run(count):
                    if count == self.KILL_AFTER:
                        killed.append(manager.kill(victim))

                first = _drive(endpoint, mixed, self.THREADS, kill_mid_run)
                assert killed == [True]
                _assert_all_answered(mixed, first)
                # a second round after the kill: every key the victim
                # owned fails over to the survivor, and none is lost
                second = _drive(endpoint, mixed, self.THREADS)
                _assert_all_answered(mixed, second)
                assert victim not in router.ring
                assert {out.served_by for _, out in second} == (
                    set(workers) - {victim}
                )
                stats = router.handle_request({"op": "stats"})
                assert validate_result(stats) == []
                router.drain()
            finally:
                # the fleet drains: the router first, then every worker
                server.shutdown()
                closer.start()
                closer.join(timeout=10)
            assert not closer.is_alive(), "server_close() did not return"
            manager.terminate()
            assert not any(manager.alive(w) for w in workers)
        finally:
            manager.terminate()


class TestFleetCLI:
    def test_fleet_serves_and_sigterm_drains_everything(self):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--role", "router", "--fleet", "2", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env(), text=True,
        )
        try:
            announce = proc.stdout.readline()
            assert "router listening on http://" in announce
            assert "(fleet of 2 workers)" in announce
            port = int(
                announce.split("http://", 1)[1].split()[0].rsplit(":", 1)[1]
            )
            endpoint = f"http://127.0.0.1:{port}"
            worker_lines = [proc.stdout.readline() for _ in range(2)]
            assert all(
                line.startswith("repro worker w") for line in worker_lines
            )

            client = ServiceClient(endpoint, max_retries=2, timeout_s=60)
            out = client.query(dataset=DATASET, k=3)
            assert out.ok and out.served_by in ("w0", "w1")
            topo = client.topology()["topology"]
            assert {w["id"] for w in topo["workers"]} == {"w0", "w1"}
            with urllib.request.urlopen(
                f"{endpoint}/healthz", timeout=10
            ) as resp:
                assert resp.status == 200

            proc.send_signal(signal.SIGTERM)
            out_text, err_text = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "repro fleet drained" in out_text
        assert "draining fleet (2 workers)" in err_text

    def test_serve_flags_reach_the_fleet_workers(self, monkeypatch):
        import repro.service
        from repro import cli

        calls = []
        monkeypatch.setattr(
            repro.service, "serve_fleet",
            lambda **kwargs: calls.append(kwargs) or 0,
        )
        argv = [
            "serve", "--fleet", "3", "--workers", "2",
            "--cache-size", "6", "--max-concurrent", "4",
        ]
        assert cli.main(argv) == 0
        (kwargs,) = calls
        assert kwargs["fleet"] == 3
        assert kwargs["worker_args"] == [
            "--cache-size", "6", "--max-concurrent", "4", "--workers", "2",
        ]
