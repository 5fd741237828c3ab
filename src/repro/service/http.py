"""HTTP framing of the repro exchange: ND-JSON envelopes over HTTP/1.1.

The one module that knows how requests and envelopes cross HTTP.  The
worker (:class:`~repro.service.server.ReproService`) and the fleet
router (:class:`~repro.service.router.RouterService`) are served by one
handler driven by the service's op table — ``POST /v1/<op>`` for each
op in ``service.OPS``, ``GET /v1/<op>`` for each in ``service.GET_OPS``
— plus ``POST /v1/rpc``, ``/healthz``, ``/readyz`` and ``/metrics``;
besides those tables it reads only ``handle_request``, ``handle_line``,
``draining``, ``readiness()`` and ``metrics_text()``.  :func:`exchange`
is the client end, shared by the retrying client and the router.
"""

from __future__ import annotations

import http.client
import json
import math
import selectors
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from .protocol import (
    CODE_BAD_REQUEST,
    CODE_EXHAUSTED,
    CODE_OK,
    CODE_PARTIAL,
    error_envelope,
)

__all__ = ["HTTPFront", "exchange", "first_envelope", "serve_until_signalled"]

_NDJSON = "application/x-ndjson"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
# the longest a handler waits for a request body once its headers are in:
# a client that declares more bytes than it sends gets a code-2 envelope
# then, instead of holding its thread and the drain
_BODY_TIMEOUT_S = 10.0


def _status_for(service, envelopes) -> Tuple[int, Optional[int]]:
    """HTTP status + optional ``Retry-After`` seconds for a response batch.

    Any rejected envelope wins (429), then any breaker fast-fail (503);
    both carry a ``Retry-After`` header so well-behaved clients back off
    instead of hammering.  Otherwise the worst code decides.
    """
    retry_hints = [
        env.get("retry_after_s")
        for env in envelopes
        if isinstance(env.get("retry_after_s"), (int, float))
    ]
    retry_after = (
        max(1, math.ceil(max(retry_hints))) if retry_hints else None
    )
    if any(env.get("rejected") for env in envelopes):
        return 429, retry_after
    if any(env.get("breaker_open") for env in envelopes):
        return 503, retry_after
    code = max((env["code"] for env in envelopes), default=0)
    if code in (CODE_OK, CODE_EXHAUSTED, CODE_PARTIAL):
        return 200, None  # the protocol exchange succeeded; 3/4 are outcomes
    if code == CODE_BAD_REQUEST:
        return 400, None
    if service.draining:
        return 503, None
    return 500, None


def _json_line(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _readable(connection) -> bool:
    """Whether ``connection`` has bytes, or its end, to read right now."""
    with selectors.DefaultSelector() as selector:
        selector.register(connection, selectors.EVENT_READ)
        return bool(selector.select(0))


class _FrontHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def service(self):
        return self.server.service  # type: ignore[attr-defined]

    def version_string(self) -> str:
        return f"{self.server.name} {self.sys_version}"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # access logging lives in the recorder, not stderr

    def handle(self) -> None:
        """Answer requests until the client hangs up, or until the server
        closes while this connection waits for its next request line."""
        self.close_connection = False
        try:
            while not self.close_connection and self.server._idle_begins(
                self.connection
            ):
                self.handle_one_request()
        finally:
            self.server._idle_ends(self.connection)

    def parse_request(self) -> bool:
        self.server._idle_ends(self.connection)  # a request line is in
        return super().parse_request()

    def _respond(
        self, status: int, body: bytes,
        retry_after: Optional[int] = None,
        content_type: str = _NDJSON,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _respond_envelopes(self, envelopes) -> None:
        body = "".join(
            json.dumps(env) + "\n" for env in envelopes
        ).encode("utf-8")
        status, retry_after = _status_for(self.service, envelopes)
        self._respond(status, body, retry_after=retry_after)

    def _refuse(self, op: Optional[str], message: str) -> None:
        self._respond_envelopes(
            [error_envelope(op, CODE_BAD_REQUEST, message)]
        )

    def _read_body(self) -> Optional[str]:
        """The request body, or None once a malformed one is refused.

        A refused body is left unread or read only in part, so the stream
        cannot be framed further and the connection closes after the
        code-2 envelope.
        """
        encoding = self.headers.get("Transfer-Encoding")
        if encoding is not None:
            self.close_connection = True
            self._refuse(
                None,
                f"Transfer-Encoding {encoding!r} is not supported: "
                "send a Content-Length",
            )
            return None
        value = self.headers.get("Content-Length", "0")
        try:
            length = int(value)
        except ValueError:
            length = -1
        if length < 0:
            # a negative length would read to EOF, holding this thread and
            # the drain while the client stays connected
            self.close_connection = True
            self._refuse(
                None,
                f"Content-Length {value!r} is not a non-negative integer",
            )
            return None
        body = self._read_exactly(length)
        if len(body) < length:
            self.close_connection = True
            try:
                self._refuse(
                    None,
                    f"request body ended after {len(body)} of {length} "
                    f"bytes (Content-Length) within {_BODY_TIMEOUT_S:g} s",
                )
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client hung up: nobody is left to answer
            return None
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError as exc:
            self._refuse(None, f"request body is not UTF-8: {exc}")
            return None

    def _read_exactly(self, length: int) -> bytes:
        """Up to ``length`` body bytes: fewer when the client stops
        sending (EOF) or ``_BODY_TIMEOUT_S`` passes first."""
        deadline = time.monotonic() + _BODY_TIMEOUT_S
        chunks = []
        got = 0
        try:
            while got < length:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.connection.settimeout(remaining)
                chunk = self.rfile.read1(length - got)
                if not chunk:
                    break
                chunks.append(chunk)
                got += len(chunk)
        except TimeoutError:
            pass
        finally:
            self.connection.settimeout(self.timeout)
        return b"".join(chunks)

    def _op(self, ops) -> Optional[str]:
        """The op ``/v1/<op>`` names, or None once the path is refused."""
        op = self.path[4:] if self.path.startswith("/v1/") else None
        if op in ops:
            return op
        self._refuse(None, f"unknown path {self.path!r}")
        return None

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        body = self._read_body()
        if body is None:
            return
        if self.path == "/v1/rpc":
            lines = [line for line in body.splitlines() if line.strip()]
            if not lines:
                self._refuse(None, "empty request")
                return
            self._respond_envelopes(
                [self.service.handle_line(line) for line in lines]
            )
            return
        op = self._op(self.service.OPS)
        if op is None:
            return
        try:
            obj = json.loads(body or "{}")
        except json.JSONDecodeError as exc:
            self._refuse(op, f"request is not valid JSON: {exc}")
            return
        if not isinstance(obj, dict):
            self._refuse(op, "request must be a JSON object")
            return
        obj.setdefault("op", op)  # the path names the op; the body may omit it
        self._respond_envelopes([self.service.handle_request(obj)])

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        if self.path == "/healthz":
            draining = self.service.draining
            self._respond(
                503 if draining else 200,
                _json_line({"status": "draining" if draining else "ok"}),
            )
            return
        if self.path == "/readyz":
            # liveness (healthz) answers "is the process up"; readiness
            # answers "should a balancer send traffic here right now"
            ready, payload = self.service.readiness()
            self._respond(200 if ready else 503, _json_line(payload))
            return
        if self.path == "/metrics":
            self._respond(
                200, self.service.metrics_text().encode("utf-8"),
                content_type=_PROMETHEUS,
            )
            return
        op = self._op(self.service.GET_OPS)
        if op is not None:
            self._respond_envelopes([self.service.handle_request({"op": op})])


class HTTPFront(ThreadingHTTPServer):
    """A threaded HTTP server around one transport-free service; ``name``
    heads its ``Server`` header (``repro-service`` or ``repro-router``)."""

    # join handler threads on server_close so a drain finishes every
    # in-flight response before the process exits
    daemon_threads = False
    block_on_close = True
    # socketserver's default listen backlog is 5; a thundering herd
    # overflows it and the kernel drops the handshake ACK, so the client
    # "connects", sends its request, and eventually sees ECONNRESET
    # without ever reaching us.  Overload decisions belong to the
    # admission gate, which answers with a well-formed 429 envelope —
    # the backlog just has to be deep enough to hand every connection
    # to a handler thread.
    request_queue_size = 128

    def __init__(self, address, service, name: str):
        self.service = service
        self.name = name
        # connections waiting for a request line, which server_close
        # ends instead of joining: an idle keep-alive client would
        # otherwise hold the drain for as long as it stays connected
        self._idle = set()
        self._idle_lock = threading.Lock()
        self._closing = False
        super().__init__(address, _FrontHandler)

    def _idle_begins(self, connection) -> bool:
        """Mark ``connection`` as waiting for a request.  Once the server
        is closing, False (the handler hangs up) unless a request has
        already arrived."""
        with self._idle_lock:
            if not self._closing:
                self._idle.add(connection)
                return True
        return _readable(connection)

    def _idle_ends(self, connection) -> None:
        with self._idle_lock:
            self._idle.discard(connection)

    def server_close(self) -> None:
        """Stop accepting, end idle connections, and join the handlers.

        Connections still in the listen backlog get a handler first:
        closing the listening socket would reset them unanswered.  An
        idle handler's read sees end-of-stream and it hangs up.  A
        handler in the middle of a request, or whose next request has
        already arrived, writes its whole response first and then finds
        the server closing.
        """
        try:
            self.socket.setblocking(False)
            while True:
                self.process_request(*self.get_request())
        except OSError:
            pass  # the backlog is empty, or the socket is already closed
        with self._idle_lock:
            self._closing = True
            for connection in self._idle:
                try:
                    if not _readable(connection):
                        connection.shutdown(socket.SHUT_RD)
                except (OSError, ValueError):
                    pass  # already gone
        super().server_close()


def serve_until_signalled(
    server: HTTPFront,
    announce: str,
    drain_message: str,
    stop: Optional[Callable[[], None]] = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain; returns once drained.

    Prints ``announce`` once the signal handlers are installed.  The
    first signal prints ``signal S: <drain_message>`` on stderr, drains
    the service (in-flight work winds down, new requests get 503), runs
    ``stop`` and stops the accept loop; ``server_close`` then joins every
    handler thread.  The previous signal handlers are restored.
    """

    def _stop() -> None:
        if stop is not None:
            stop()
        server.shutdown()

    def _on_signal(signum, frame):
        print(f"signal {signum}: {drain_message}", file=sys.stderr, flush=True)
        server.service.drain()
        # shutdown() blocks until the accept loop exits; calling it on
        # this (main) thread would deadlock with serve_forever below
        threading.Thread(target=_stop, daemon=True).start()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    print(announce, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def exchange(
    url: str, body: Optional[bytes], timeout_s: float
) -> Tuple[int, Optional[str], bytes]:
    """One HTTP exchange: ``(status, Retry-After header, body)``.

    POSTs ``body`` as ND-JSON, or GETs when it is None.  Error statuses
    are returned; a connection-level failure raises ``OSError``
    (:class:`urllib.error.URLError` among them), and so does a response
    the peer cut short or garbled (a ``ConnectionError``).
    """
    request = urllib.request.Request(
        url,
        data=body,
        method="POST" if body is not None else "GET",
        headers={"Content-Type": _NDJSON} if body is not None else {},
    )
    try:
        response = urllib.request.urlopen(request, timeout=timeout_s)
    except urllib.error.HTTPError as exc:
        response = exc  # an error status with a readable body
    except http.client.HTTPException as exc:  # e.g. a bad status line
        raise ConnectionError(f"malformed response: {exc!r}") from exc
    with response:
        try:
            payload = response.read()
        except http.client.HTTPException as exc:  # e.g. IncompleteRead
            raise ConnectionError(f"response cut short: {exc!r}") from exc
        return response.status, response.headers.get("Retry-After"), payload


def first_envelope(payload: bytes) -> Optional[Dict[str, Any]]:
    """The first envelope of an ND-JSON response body (None if empty)."""
    for line in payload.decode("utf-8").splitlines():
        if line:
            return json.loads(line)
    return None
