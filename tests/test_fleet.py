"""Fleet integration: real worker subprocesses, chaos, whole-fleet drain.

``tests/test_router.py`` covers routing semantics with in-process
workers; this file crosses the process boundary.  A
:class:`~repro.service.FleetManager` spawns genuine
``python -m repro serve --role worker`` children, an in-process router
routes to them over real sockets, and the CLI-level test drives
``serve --role router --fleet N`` end to end including the
SIGTERM-drains-everything contract.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.obs.validate import validate_result
from repro.service import (
    FleetManager,
    RouterConfig,
    ServiceClient,
    make_router,
)

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

    def test_terminate_reaps_every_worker(self):
        manager = FleetManager(2)
        workers = manager.start()
        assert len(workers) == 2
        manager.terminate()
        assert all(not manager.alive(w) for w in workers)


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
