"""Backend HTTP server (the paper's Apache/2.2.3 stand-in).

Serves a :class:`StaticSite` (path -> object) over the simulated TCP with a
configurable service-time model.  Supports HTTP/1.0 (close after response),
HTTP/1.1 keep-alive, and pipelining with strictly in-order responses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import HttpError, SlowClientTimeout
from repro.http.message import HttpRequest, HttpResponse
from repro.http.parser import HttpParser
from repro.http import tls
from repro.net.host import Host
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack


class StaticSite:
    """A set of web objects: path -> bytes (or a size, synthesized lazily)."""

    def __init__(self, objects: Optional[Dict[str, Union[bytes, int]]] = None):
        self._objects: Dict[str, Union[bytes, int]] = dict(objects or {})

    def add(self, path: str, content: Union[bytes, int]) -> None:
        self._objects[path] = content

    def __contains__(self, path: str) -> bool:
        return path in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def paths(self) -> List[str]:
        return list(self._objects)

    def get(self, path: str) -> Optional[bytes]:
        content = self._objects.get(path)
        if content is None:
            return None
        if isinstance(content, int):
            return _synthesize(path, content)
        return content

    def size_of(self, path: str) -> Optional[int]:
        content = self._objects.get(path)
        if content is None:
            return None
        return content if isinstance(content, int) else len(content)


# byte -> printable ASCII ("!".."~"): filler never holds a CR or LF
_PRINTABLE = bytes(33 + i % 94 for i in range(256))
# 251 is prime and does not divide the 1,460-byte MSS, so a segment read
# one MSS off, or taken from another object, holds different bytes
_FILLER_UNIT = 251


def _synthesize(path: str, size: int) -> bytes:
    """Deterministic content of exactly ``size`` bytes, a function of the
    path alone: a stamp naming the path, then a 251-byte unit derived from
    the path, repeated -- so where a byte sits in which object shows."""
    stamp = f"<!-- {path} -->".encode()
    if size <= len(stamp):
        return stamp[:size]
    unit = hashlib.shake_256(path.encode()).digest(_FILLER_UNIT).translate(_PRINTABLE)
    rest = size - len(stamp)
    return stamp + (unit * (rest // _FILLER_UNIT + 1))[:rest]


# long-lived (streaming) responses: /stream/<chunks>/<chunk_bytes>/<interval_ms>
# is served as a paced chunked download -- the workload for flows that must
# outlive instance and region failures.
STREAM_PATH_PREFIX = "/stream/"


def parse_stream_path(path: str):
    """``/stream/<chunks>/<chunk_bytes>/<interval_ms>`` -> tuple or None."""
    if not path.startswith(STREAM_PATH_PREFIX):
        return None
    parts = path[len(STREAM_PATH_PREFIX):].split("/")
    if len(parts) != 3:
        return None
    try:
        chunks, chunk_bytes, interval_ms = (int(p) for p in parts)
    except ValueError:
        return None
    if chunks < 1 or chunk_bytes < 1 or interval_ms < 0:
        return None
    return chunks, chunk_bytes, interval_ms


@dataclass
class _PacedBody:
    """A serialized response delivered chunk-by-chunk on a timer."""

    data: bytes
    chunk: int
    interval: float


@dataclass
class ServiceTimeModel:
    """How long the backend takes to produce a response.

    service = base + per_byte * len(body).  The paper's 133 ms no-LB
    baseline is Internet RTT + this; experiments calibrate ``base``.
    """

    base: float = 0.004
    per_byte: float = 0.0

    def delay(self, response: HttpResponse) -> float:
        return self.base + self.per_byte * len(response.body)


class BackendHttpServer:
    """One backend server VM: host + TCP stack + request handling."""

    def __init__(
        self,
        host: Host,
        loop: EventLoop,
        site: StaticSite,
        port: int = 80,
        service_model: Optional[ServiceTimeModel] = None,
        stack: Optional[TcpStack] = None,
        tls_certificate: Optional["tls.Certificate"] = None,
        progress_deadline: Optional[float] = None,
        session_tickets: bool = False,
    ):
        self.host = host
        self.loop = loop
        self.site = site
        self.port = port
        self.service_model = service_model or ServiceTimeModel()
        self.stack = stack or TcpStack(host, loop)
        self.tls_certificate = tls_certificate
        # slow-loris guard: a connection must complete each request within
        # this many seconds of its first byte, or be reset (None = off)
        self.progress_deadline = progress_deadline
        # issue deterministic TLS session tickets after full handshakes
        self.session_tickets = session_tickets
        self.stack.listen(port, self._accept)
        self.requests_served = 0
        self.active_requests = 0
        self.bytes_served = 0
        self.slow_client_timeouts = 0
        self.slow_clients: List[SlowClientTimeout] = []

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def ip(self) -> str:
        return self.host.ip

    def fail(self) -> None:
        self.host.fail()

    def recover(self) -> None:
        self.host.recover()

    def _accept(self, conn: TcpConnection) -> ConnectionHandler:
        if self.tls_certificate is not None:
            return _TlsServerConnection(self)
        return _ServerConnection(self)

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Map a request to a response.  Override for dynamic behaviour."""
        stream = parse_stream_path(request.path)
        if stream is not None:
            chunks, chunk_bytes, interval_ms = stream
            # NOTE: no per-backend header here -- a resumed flow replays
            # this response from a *different* backend, and the paper's
            # duplicate-suppression trick needs the two byte streams to be
            # identical given the path alone
            return HttpResponse(
                200,
                headers={
                    "Server": "Apache/2.2.3 (sim)",
                    "X-Stream-Chunk": str(chunk_bytes),
                    "X-Stream-Interval": f"{interval_ms / 1000.0:.6f}",
                },
                body=_synthesize(request.path, chunks * chunk_bytes),
                version=request.version,
            )
        body = self.site.get(request.path)
        if body is None:
            return HttpResponse(404, body=b"not found", version=request.version)
        return HttpResponse(
            200,
            headers={"Server": "Apache/2.2.3 (sim)", "X-Backend": self.host.name},
            body=body,
            version=request.version,
        )


class _ServerConnection(ConnectionHandler):
    """Per-connection state: parser + in-order pipelined response queue."""

    def __init__(self, server: BackendHttpServer):
        self.server = server
        self.parser = HttpParser("request")
        self._ready: Dict[int, object] = {}  # request id -> serialized response
        self._next_id = 0  # id assigned to the next arriving request
        self._next_to_send = 0  # pipelining: responses go out in arrival order
        self._closing = False
        self._streaming = False  # a paced response is mid-delivery
        self._obs_spans: Dict[int, object] = {}
        # slow-loris guard bookkeeping
        self._progress_timer = None
        self._partial_bytes = 0  # request bytes since the last complete request

    def on_connected(self, conn: TcpConnection) -> None:
        self._arm_progress_timer(conn)

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        self._partial_bytes += len(data)
        try:
            parsed = self.parser.feed(data)
        except HttpError:
            conn.abort("bad-request")
            return
        if parsed:
            self._partial_bytes = 0
            self._arm_progress_timer(conn)
        for item in parsed:
            self._start_request(conn, item.message)

    # -- slow-loris guard ------------------------------------------------------
    def _arm_progress_timer(self, conn: TcpConnection) -> None:
        deadline = self.server.progress_deadline
        if deadline is None:
            return
        if self._progress_timer is not None:
            self._progress_timer.cancel()
        self._progress_timer = self.server.loop.call_later(
            deadline, self._progress_expired, conn
        )

    def _progress_expired(self, conn: TcpConnection) -> None:
        self._progress_timer = None
        if not conn.state.can_send:
            return
        if self._partial_bytes == 0:
            # an idle keep-alive connection is not a slow client; keep
            # watching in case a trickled request starts later
            self._arm_progress_timer(conn)
            return
        err = SlowClientTimeout(str(conn.remote), self.server.progress_deadline)
        self.server.slow_client_timeouts += 1
        self.server.slow_clients.append(err)
        conn.abort("slow-client")

    def on_closed(self, conn: TcpConnection) -> None:
        if self._progress_timer is not None:
            self._progress_timer.cancel()
            self._progress_timer = None

    def on_error(self, conn: TcpConnection, reason: str) -> None:
        self.on_closed(conn)

    def _start_request(self, conn: TcpConnection, request: HttpRequest) -> None:
        req_id = self._next_id
        self._next_id += 1
        self.server.active_requests += 1
        if OBS.enabled:
            self._obs_spans[req_id] = OBS.tracer.start(
                "backend.serve", self.server.name, ctx=conn.obs_ctx,
                attrs={"path": request.path})
        response = self.server.handle_request(request)
        keep_alive = _wants_keep_alive(request)
        if not keep_alive:
            response.headers.set("Connection", "close")
        delay = self.server.service_model.delay(response)
        self.server.loop.call_later(
            delay, self._finish_request, conn, req_id, response, keep_alive
        )

    def _finish_request(
        self, conn: TcpConnection, req_id: int, response: HttpResponse,
        keep_alive: bool,
    ) -> None:
        self.server.active_requests -= 1
        self.server.requests_served += 1
        self.server.bytes_served += len(response.body)
        self._obs_finish(req_id, response)
        self._ready[req_id] = self._serialize(response)
        if not keep_alive:
            self._closing = True
        self._flush(conn)

    def _serialize(self, response: HttpResponse) -> object:
        data = response.serialize()
        interval = response.headers.get("X-Stream-Interval")
        if interval is not None:
            chunk = int(response.headers.get("X-Stream-Chunk") or "1460")
            return _PacedBody(data, chunk, float(interval))
        return data

    def _obs_finish(self, req_id: int, response: HttpResponse) -> None:
        span = self._obs_spans.pop(req_id, None)
        if OBS.enabled and span is not None:
            OBS.tracer.end(span, ok=response.ok, status=response.status)

    @property
    def _pending(self) -> bool:
        return self._next_to_send < self._next_id

    def _flush(self, conn: TcpConnection) -> None:
        """Send completed responses strictly in arrival order."""
        while not self._streaming and self._next_to_send in self._ready:
            data = self._ready.pop(self._next_to_send)
            if isinstance(data, _PacedBody):
                # a paced response blocks the pipeline until delivered
                self._streaming = True
                self._pace(conn, data, 0)
                break
            self._next_to_send += 1
            if conn.state.can_send:
                conn.send(data)
        if (self._closing and not self._pending and not self._streaming
                and conn.state.can_send):
            conn.close()

    def _pace(self, conn: TcpConnection, paced: _PacedBody, offset: int) -> None:
        if not conn.state.can_send:
            self._streaming = False
            return
        end = min(offset + paced.chunk, len(paced.data))
        conn.send(paced.data[offset:end])
        if end < len(paced.data):
            self.server.loop.call_later(paced.interval, self._pace, conn,
                                        paced, end)
        else:
            self._streaming = False
            self._next_to_send += 1
            self._flush(conn)

    def on_remote_close(self, conn: TcpConnection) -> None:
        if not self._pending:
            conn.close()
        else:
            self._closing = True


def _wants_keep_alive(request: HttpRequest) -> bool:
    connection = (request.headers.get("Connection") or "").lower()
    if request.version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


class _TlsServerConnection(_ServerConnection):
    """TLS-terminating connection: record layer around the HTTP handling.

    The handshake response is *deterministic* given the certificate, so
    when YODA replays a buffered client handshake to this backend, the
    backend emits byte-identical records to those the YODA instance
    already served the client (which YODA then suppresses).
    """

    def __init__(self, server: BackendHttpServer):
        super().__init__(server)
        self.codec = tls.TlsCodec()
        self.established = False
        self._sni = ""
        self._resumed = False

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        try:
            records = self.codec.feed(data)
        except HttpError:
            conn.abort("bad-tls-record")
            return
        for rtype, payload in records:
            if rtype == tls.CLIENT_HELLO:
                self._sni, ticket = tls.parse_hello(payload)
                self._resumed = (ticket is not None
                                 and self.server.session_tickets)
                if self._resumed:
                    # abbreviated handshake: YODA validated the ticket
                    # against the flow store before any byte reached us
                    conn.send(tls.session_ticket(ticket))
                else:
                    conn.send(
                        tls.certificate_flight(self.server.tls_certificate))
            elif rtype == tls.KEY_EXCHANGE:
                self.established = True
                if self.server.session_tickets and not self._resumed:
                    # deterministic ticket: the YODA instance mints the
                    # same one, so our replayed flight stays byte-identical
                    conn.send(tls.session_ticket(tls.ticket_for(self._sni)))
            elif rtype == tls.APP_DATA:
                try:
                    parsed = self.parser.feed(payload)
                except HttpError:
                    conn.abort("bad-request")
                    return
                for item in parsed:
                    self._start_request(conn, item.message)
            # RETRY_PING records are handshake noise: ignored

    def _finish_request(self, conn: TcpConnection, req_id: int,
                        response: HttpResponse, keep_alive: bool) -> None:
        self.server.active_requests -= 1
        self.server.requests_served += 1
        self.server.bytes_served += len(response.body)
        self._obs_finish(req_id, response)
        self._ready[req_id] = tls.app_data(response.serialize())  # no pacing over TLS
        if not keep_alive:
            self._closing = True
        self._flush(conn)
