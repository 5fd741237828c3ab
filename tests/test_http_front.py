"""The HTTP contract shared by the worker daemon and the fleet router.

Both fronts speak the same framing — ND-JSON envelopes over HTTP/1.1 —
so every case here runs against a worker (``make_server``) and against
a router (``make_router`` over one in-process worker).  The cases pin
what a client can observe on the wire: status codes, exact probe
payloads, content types, the ``Server`` header, and the code-2
envelope for every malformed request, including malformed framing
(``Content-Length``, ``Transfer-Encoding``, a body shorter than its
length, or its encoding), which is sent over a raw socket because a
well-behaved client library cannot produce it.
"""

import http.client
import json
import socket
import sys
import threading

import pytest

from repro.service import http as front_http
from repro.service import (
    RouterConfig,
    ServiceConfig,
    make_router,
    make_server,
)

NDJSON = "application/x-ndjson"


class Front:
    """One started front: its server, its service and its address."""

    def __init__(self, kind):
        self.kind = kind
        self._servers = []
        if kind == "worker":
            self.server, self.service = self._start(
                make_server(ServiceConfig(port=0))
            )
        else:
            worker, _ = self._start(
                make_server(ServiceConfig(port=0, worker_id="w0"))
            )
            self.server, self.service = self._start(make_router(
                RouterConfig(port=0),
                {"w0": f"http://127.0.0.1:{worker.server_address[1]}"},
            ))
        self.port = self.server.server_address[1]

    def _start(self, pair):
        server, service = pair
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        self._servers.append((server, thread))
        return server, service

    def close(self):
        for server, thread in reversed(self._servers):
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def request(self, method, path, body=None):
        """``(status, headers, body bytes)`` of one exchange."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.headers, response.read()
        finally:
            conn.close()

    def envelopes(self, method, path, body=None):
        """``(status, envelopes)`` of one ND-JSON exchange."""
        status, headers, payload = self.request(method, path, body)
        assert headers["Content-Type"] == NDJSON
        lines = payload.decode("utf-8").splitlines()
        return status, [json.loads(line) for line in lines]


@pytest.fixture(params=["worker", "router"])
def front(request):
    started = Front(request.param)
    yield started
    started.close()


def probe(front, path):
    status, _, payload = front.request("GET", path)
    return status, json.loads(payload)


def readiness(front, draining):
    """The exact ``/readyz`` payload of a front with no saturation."""
    payload = {
        "status": "draining" if draining else "ok",
        "draining": draining,
    }
    if front.kind == "worker":
        payload["admission_saturated"] = False
    else:
        payload["workers"] = 1
    return payload


def test_probes_while_serving(front):
    assert probe(front, "/healthz") == (200, {"status": "ok"})
    assert probe(front, "/readyz") == (200, readiness(front, False))


def test_probes_while_draining(front):
    front.service.drain()
    assert probe(front, "/healthz") == (503, {"status": "draining"})
    assert probe(front, "/readyz") == (503, readiness(front, True))


def test_server_header_names_the_front(front):
    _, headers, _ = front.request("GET", "/healthz")
    expected = "repro-service" if front.kind == "worker" else "repro-router"
    assert headers["Server"].split()[0] == expected


def test_stats_by_get_and_post(front):
    schema = (
        "repro/service-stats-v1" if front.kind == "worker"
        else "repro/router-stats-v1"
    )
    for method, body in (("GET", None), ("POST", b"{}")):
        status, envelopes = front.envelopes(method, "/v1/stats", body)
        assert status == 200
        assert len(envelopes) == 1
        assert envelopes[0]["op"] == "stats"
        assert envelopes[0]["code"] == 0
        assert envelopes[0]["stats"]["schema"] == schema


def test_topology_only_on_the_router(front):
    for method, body in (("GET", None), ("POST", b"{}")):
        status, envelopes = front.envelopes(method, "/v1/topology", body)
        (env,) = envelopes
        if front.kind == "router":
            assert status == 200
            assert env["code"] == 0
            assert env["topology"]["schema"] == "repro/topology-v1"
        else:
            assert status == 400
            assert env["code"] == 2
            assert env["error"] == "unknown path '/v1/topology'"


def test_metrics_is_prometheus_text(front):
    status, headers, _ = front.request("GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"] == (
        "text/plain; version=0.0.4; charset=utf-8"
    )


def test_unknown_paths_are_400(front):
    for method, path, body in (
        ("GET", "/v1/nope", None),
        ("POST", "/v1/nope", b"{}"),
        ("GET", "/v1/query", None),
    ):
        status, envelopes = front.envelopes(method, path, body)
        assert status == 400
        assert [(env["code"], env["error"]) for env in envelopes] == [
            (2, f"unknown path {path!r}")
        ]


def test_malformed_bodies_are_400(front):
    for path, body, error in (
        ("/v1/stats", b"{nope", "request is not valid JSON"),
        ("/v1/stats", b"[1, 2]", "request must be a JSON object"),
        ("/v1/rpc", b"", "empty request"),
        ("/v1/rpc", b"\n  \n", "empty request"),
    ):
        status, envelopes = front.envelopes("POST", path, body)
        assert status == 400, body
        (env,) = envelopes
        assert env["code"] == 2
        assert env["error"].startswith(error)


def test_rpc_batch_is_answered_in_order(front):
    body = "\n".join([
        json.dumps({"op": "stats", "request_id": "first"}),
        "not json",
        json.dumps({"op": "nope"}),
        json.dumps({"op": "stats", "request_id": "last"}),
    ]).encode("utf-8")
    status, envelopes = front.envelopes("POST", "/v1/rpc", body)
    # the worst code of the batch decides the status
    assert status == 400
    assert [env["code"] for env in envelopes] == [0, 2, 2, 0]
    assert [env["op"] for env in envelopes] == ["stats", "", "", "stats"]
    assert envelopes[0]["request_id"] == "first"
    assert envelopes[-1]["request_id"] == "last"


def test_draining_front_refuses_with_503(front):
    front.service.drain()
    status, envelopes = front.envelopes("POST", "/v1/stats", b"{}")
    assert status == 503
    (env,) = envelopes
    assert env["code"] == 1
    assert "draining" in env["error"]


# -- malformed framing, over a raw socket ---------------------------------

FRAMING = {
    "non-integer-length": (b"Content-Length: abc\r\n", b"{}", True),
    "negative-length": (b"Content-Length: -1\r\n", b"{}", True),
    "non-utf8-body": (b"Content-Length: 2\r\n", b"\xff\xfe", False),
    # the chunks must not be served as an empty body and then parsed as
    # the next request line
    "chunked-body": (
        b"Transfer-Encoding: chunked\r\n",
        b'f\r\n{"op": "stats"}\r\n0\r\n\r\n',
        True,
    ),
}


def refusal(response):
    """The one code-2 envelope of a 400 response."""
    response.begin()
    assert response.status == 400
    assert response.getheader("Content-Type") == NDJSON
    (line,) = response.read().decode("utf-8").splitlines()
    env = json.loads(line)
    assert env["code"] == 2
    return env


@pytest.mark.parametrize("case", sorted(FRAMING))
def test_malformed_framing_is_400(front, case):
    header, body, closes = FRAMING[case]
    sock = socket.create_connection(("127.0.0.1", front.port), timeout=5)
    response = http.client.HTTPResponse(sock, method="POST")
    try:
        sock.sendall(
            b"POST /v1/stats HTTP/1.1\r\nHost: test\r\n" + header
            + b"\r\n" + body
        )
        env = refusal(response)
        assert env["error"]
        if closes:
            # the body was not read, so the connection cannot be reused
            assert sock.recv(1) == b""
    finally:
        # both, or the socket stays open, and a handler still waiting
        # for the body would hold ``server_close()``
        response.close()
        sock.close()


def test_short_body_is_400_and_releases_the_drain(front, monkeypatch, capfd):
    """A client that declares more body than it sends and stays connected
    holds neither its handler thread nor ``server_close()`` past the body
    timeout, and still gets a code-2 envelope."""
    monkeypatch.setattr(front_http, "_BODY_TIMEOUT_S", 0.5, raising=False)
    sock = socket.create_connection(("127.0.0.1", front.port), timeout=10)
    response = http.client.HTTPResponse(sock, method="POST")
    try:
        sock.sendall(
            b"POST /v1/stats HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{}"
        )
        front.service.drain()
        closer = threading.Thread(target=front.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "server_close() waits on the client"
        env = refusal(response)
        assert env["error"].startswith("request body ended after 2 of 100")
        assert sock.recv(1) == b""  # and the server closed the connection
    finally:
        response.close()
        sock.close()
    err = capfd.readouterr().err
    assert "Traceback" not in err and "BrokenPipe" not in err, err


def test_idle_keep_alive_client_does_not_hold_the_drain(front):
    """Clients that got their answers and keep their connections open,
    idle, hold neither their handler threads nor ``server_close()``."""
    conns = [
        http.client.HTTPConnection("127.0.0.1", front.port, timeout=10)
        for _ in range(8)
    ]
    statuses = []

    def ask(conn):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()  # HTTP/1.1: the connection stays open
        statuses.append(response.status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the handlers' idle marks
    try:
        askers = [
            threading.Thread(target=ask, args=(conn,), daemon=True)
            for conn in conns
        ]
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(timeout=10)
            assert not asker.is_alive()
        assert statuses == [200] * len(conns)
        front.service.drain()
        closer = threading.Thread(target=front.close, daemon=True)
        closer.start()
        closer.join(timeout=2)
        assert not closer.is_alive(), "server_close() waits on an idle client"
    finally:
        sys.setswitchinterval(interval)
        for conn in conns:
            conn.close()


def test_close_finishes_the_response_in_flight(front, monkeypatch):
    """``server_close()`` ends idle connections only: a request already
    being answered gets its whole response first."""
    entered, release = threading.Event(), threading.Event()
    handle_request = front.service.handle_request

    def held(obj):
        entered.set()
        release.wait(10)
        return handle_request(obj)

    monkeypatch.setattr(front.service, "handle_request", held)
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=10)
    answer = {}

    def ask():
        conn.request("POST", "/v1/stats", body=b"{}")
        response = conn.getresponse()
        answer["status"], answer["body"] = response.status, response.read()

    asker = threading.Thread(target=ask, daemon=True)
    closer = threading.Thread(target=front.close, daemon=True)
    try:
        asker.start()
        assert entered.wait(10)
        closer.start()
        closer.join(timeout=0.5)
        assert closer.is_alive(), "server_close() cut the request short"
        release.set()
        asker.join(timeout=10)
        closer.join(timeout=10)
        assert not asker.is_alive() and not closer.is_alive()
    finally:
        release.set()
        conn.close()
    assert answer["status"] == 200
    (env,) = [json.loads(line) for line in answer["body"].splitlines()]
    assert env["op"] == "stats" and env["code"] == 0


def test_exchange_reports_a_cut_short_response_as_a_connection_error():
    """A peer that dies mid-body is a connection failure to the caller —
    the router fails over, the client retries — not an internal error."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_in_part():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}")

    server = threading.Thread(target=answer_in_part, daemon=True)
    server.start()
    url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/stats"
    try:
        with pytest.raises(ConnectionError, match="cut short"):
            front_http.exchange(url, None, 10)
    finally:
        server.join(timeout=10)
        listener.close()
