"""HTTP clients: single fetches and a browser emulator.

The failure experiments hinge on client behaviour, so it is modeled the way
the paper describes its Python clients (Section 7.2): an HTTP timeout
(30 s default, "the least among the popular web browsers"), an optional
single retry on a *fresh* connection, and pages fetched as an HTML document
followed by its embedded objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import HttpError
from repro.http import tls
from repro.http.message import HttpRequest, HttpResponse
from repro.http.parser import HttpParser
from repro.net.addresses import Endpoint
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.process import Timer
from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack

DEFAULT_HTTP_TIMEOUT = 30.0


@dataclass(slots=True)
class FetchResult:
    """Outcome of one HTTP request (after any retries)."""

    path: str
    ok: bool
    status: Optional[int] = None
    error: Optional[str] = None  # "timeout" | "reset" | "tcp-timeout" | ...
    started_at: float = 0.0
    finished_at: float = 0.0
    retries_used: int = 0
    response: Optional[HttpResponse] = None
    first_attempt_failed: bool = False
    resumed: bool = False  # HTTPS only: completed via an abbreviated handshake

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


class HttpFetcher(ConnectionHandler):
    """Fetch one request over one fresh connection, with timeout + retries.

    A retry always opens a new connection (new ephemeral port, so a new
    5-tuple) -- this is the paper's HAProxy-retry scenario: the L4 LB sees
    a brand-new flow and routes it to a live instance.  A failed attempt's
    connection is abandoned first, detached and then aborted, so nothing
    it still delivers reaches the fetcher: callbacks only ever come from
    the current connection.
    """

    def __init__(
        self,
        stack: TcpStack,
        loop: EventLoop,
        target: Endpoint,
        request: HttpRequest,
        on_done: Callable[[FetchResult], None],
        http_timeout: float = DEFAULT_HTTP_TIMEOUT,
        retries: int = 0,
        stall_timeout: Optional[float] = None,
    ):
        self.stack = stack
        self.loop = loop
        self.target = target
        self.request = request
        self.on_done = on_done
        self.http_timeout = http_timeout
        self.stall_timeout = stall_timeout
        self.retries = retries
        self.result = FetchResult(path=request.path, ok=False, started_at=loop.now())
        self._parser = HttpParser("response")
        self._timer = Timer(loop, self._on_http_timeout)
        self._conn: Optional[TcpConnection] = None
        self._finished = False
        self._span = None  # root trace span (observability plane)
        self._obs_ctx = None

    def start(self) -> "HttpFetcher":
        self._parser = HttpParser("response")
        self._timer.start(self.stall_timeout or self.http_timeout)
        if OBS.enabled:
            if self._span is None:
                # root of the request's trace; retries continue the same
                # span, mirroring FetchResult's started_at/finished_at
                self._span = OBS.tracer.start(
                    "http.request", self.stack.host.name,
                    start=self.result.started_at,
                    attrs={"path": self.request.path},
                )
            self._obs_ctx = OBS.tracer.ctx_of(self._span)
        self._conn = self.stack.connect(self.target, self, obs_ctx=self._obs_ctx)
        return self

    # -- TCP callbacks -----------------------------------------------------
    def on_connected(self, conn: TcpConnection) -> None:
        conn.send(self.request.serialize())

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        if self.stall_timeout is not None and not self._finished:
            # a streaming client's patience is per-stall, not per-transfer
            self._timer.start(self.stall_timeout)
        try:
            parsed = self._parser.feed(data)
        except HttpError:
            self._attempt_failed("bad-response")
            return
        if parsed:
            self._complete(parsed[0].message)

    def on_remote_close(self, conn: TcpConnection) -> None:
        if self._finished:
            return
        try:
            final = self._parser.finish()
        except HttpError:  # closed mid-header
            final = None
        if final is not None:
            self._complete(final.message)
            return
        self._attempt_failed("closed-early")

    def on_error(self, conn: TcpConnection, reason: str) -> None:
        if not self._finished:
            self._attempt_failed("reset" if reason == "reset" else "tcp-timeout")

    # -- internals ----------------------------------------------------------
    def _on_http_timeout(self) -> None:
        self._attempt_failed("timeout")

    def _abandon(self) -> None:
        """Silently drop the current connection, as a browser does."""
        conn = self._conn
        if conn is not None:
            self._conn = None
            conn.detach()
            conn.abort("abandoned")

    def _finish(self) -> None:
        """The fetch is over: let go of the timer and the connection, the
        two references that tie a fetcher into cycles (timer -> bound
        method -> fetcher, connection -> handler -> fetcher)."""
        self._finished = True
        self._timer.release()
        self._conn = None

    def _attempt_failed(self, error: str) -> None:
        if self._finished:
            return
        self._timer.cancel()
        self._abandon()
        self.result.first_attempt_failed = True
        if self.result.retries_used < self.retries:
            self.result.retries_used += 1
            self.start()  # fresh connection, fresh parser, fresh timer
            return
        self._finish()
        self.result.error = error
        self.result.finished_at = self.loop.now()
        if OBS.enabled and self._span is not None:
            OBS.tracer.end(self._span, end=self.result.finished_at,
                           ok=False, error=error,
                           retries=self.result.retries_used)
        self.on_done(self.result)

    def _complete(self, response: HttpResponse) -> None:
        if self._finished:
            return
        conn = self._conn
        self._finish()
        if conn is not None and conn.state.can_send:
            conn.close()
        self.result.ok = response.ok
        self.result.status = response.status
        self.result.response = response
        self.result.finished_at = self.loop.now()
        if not response.ok:
            self.result.error = f"http-{response.status}"
        if OBS.enabled and self._span is not None:
            OBS.tracer.end(self._span, end=self.result.finished_at,
                           ok=response.ok, status=response.status,
                           retries=self.result.retries_used)
        self.on_done(self.result)


@dataclass
class PageLoadResult:
    """Outcome of loading a page (HTML + embedded objects)."""

    page: str
    started_at: float
    finished_at: float = 0.0
    object_results: List[FetchResult] = field(default_factory=list)
    broken: bool = False  # at least one object ultimately failed

    @property
    def load_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def retried(self) -> bool:
        return any(r.retries_used for r in self.object_results)


class BrowserClient:
    """Emulates the paper's browser client: fetch the HTML page, then each
    embedded object, sequentially, each on its own connection."""

    def __init__(
        self,
        stack: TcpStack,
        loop: EventLoop,
        target: Endpoint,
        http_timeout: float = DEFAULT_HTTP_TIMEOUT,
        retries: int = 0,
        host_header: str = "",
        stall_timeout: Optional[float] = None,
    ):
        self.stack = stack
        self.loop = loop
        self.target = target
        self.http_timeout = http_timeout
        self.stall_timeout = stall_timeout
        self.retries = retries
        self.host_header = host_header

    def load_page(
        self,
        html_path: str,
        object_paths: List[str],
        on_done: Callable[[PageLoadResult], None],
    ) -> None:
        _PageLoad(self, html_path, object_paths, on_done).fetch_next()

    def fetch(self, path: str, on_done: Callable[[FetchResult], None]) -> HttpFetcher:
        request = HttpRequest(
            "GET", path, version="HTTP/1.0", host=self.host_header or self.target.ip
        )
        fetcher = HttpFetcher(
            self.stack,
            self.loop,
            self.target,
            request,
            on_done,
            http_timeout=self.http_timeout,
            retries=self.retries,
            stall_timeout=self.stall_timeout,
        )
        return fetcher.start()


class _PageLoad:
    """One page load in progress: its objects fetched one after another.

    Each fetch is handed a fresh bound method and the load keeps no
    fetcher, so nothing here is a reference cycle: the load is freed when
    its last fetcher is."""

    __slots__ = ("browser", "result", "remaining", "on_done")

    def __init__(self, browser: BrowserClient, html_path: str,
                 object_paths: List[str],
                 on_done: Callable[[PageLoadResult], None]):
        self.browser = browser
        self.result = PageLoadResult(page=html_path,
                                     started_at=browser.loop.now())
        self.remaining = [html_path] + list(object_paths)
        self.on_done = on_done

    def fetch_next(self) -> None:
        if not self.remaining:
            self.result.finished_at = self.browser.loop.now()
            self.on_done(self.result)
            return
        self.browser.fetch(self.remaining.pop(0), self._one_done)

    def _one_done(self, fetch_result: FetchResult) -> None:
        self.result.object_results.append(fetch_result)
        if not fetch_result.ok:
            self.result.broken = True
        self.fetch_next()


class HttpsFetcher(HttpFetcher):
    """HTTPS: a TLS handshake precedes the request (paper Section 5.2).

    The client sends a ClientHello, waits for the certificate flight,
    then sends its key exchange + the request as APP_DATA records.  If
    the certificate stalls (the serving instance died mid-transfer), the
    client nudges with RETRY_PING records; whichever instance receives
    the nudge recovers the flow from TCPStore and "resends the entire
    certificate (TCP ... will remove duplicate packets)" -- the paper's
    exact failover story for SSL.
    """

    HANDSHAKE_RETRY = 1.0
    MAX_HANDSHAKE_RETRIES = 20

    def __init__(self, *args, sni: str = "",
                 session_cache: Optional[Dict[str, str]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.sni = sni or str(self.target.ip)
        # sni -> session ticket; share one dict across fetchers to model a
        # browser's session cache (resumption skips the certificate flight)
        self.session_cache = session_cache
        self._codec = tls.TlsCodec()
        self._tls_established = False
        self._resuming = False
        self._handshake_timer = Timer(self.loop, self._handshake_stalled)
        self._handshake_retries = 0

    def start(self) -> "HttpsFetcher":
        self._codec = tls.TlsCodec()
        self._tls_established = False
        self._resuming = (self.session_cache is not None
                          and self.sni in self.session_cache)
        self._handshake_retries = 0
        return super().start()

    # -- TCP callbacks --------------------------------------------------
    def on_connected(self, conn: TcpConnection) -> None:
        ticket = self.session_cache[self.sni] if self._resuming else None
        conn.send(tls.client_hello(self.sni, ticket=ticket))
        self._handshake_timer.start(self.HANDSHAKE_RETRY)

    def _handshake_done(self, conn: TcpConnection) -> None:
        self._tls_established = True
        self._handshake_timer.cancel()
        conn.send(tls.key_exchange(self.sni))
        conn.send(tls.app_data(self.request.serialize()))

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        if self.stall_timeout is not None and not self._finished:
            self._timer.start(self.stall_timeout)
        try:
            records = self._codec.feed(data)
        except HttpError:
            self._handshake_timer.cancel()
            self._attempt_failed("bad-tls-record")
            return
        for rtype, payload in records:
            if rtype == tls.CERTIFICATE and not self._tls_established:
                self._handshake_done(conn)
            elif rtype == tls.SESSION_TICKET:
                if not self._tls_established and self._resuming:
                    # abbreviated handshake accepted: no certificate flight
                    self.result.resumed = True
                    self._handshake_done(conn)
                elif self.session_cache is not None:
                    # ticket issued after a full handshake: cache it
                    self.session_cache[self.sni] = payload.decode()
            elif rtype == tls.APP_DATA:
                try:
                    parsed = self._parser.feed(payload)
                except HttpError:
                    self._attempt_failed("bad-response")
                    return
                if parsed:
                    self._complete(parsed[0].message)

    def _handshake_stalled(self) -> None:
        """No certificate yet: nudge so a surviving instance recovers us."""
        if self._finished or self._tls_established:
            return
        self._handshake_retries += 1
        if self._handshake_retries > self.MAX_HANDSHAKE_RETRIES:
            self._attempt_failed("tls-handshake-timeout")
            return
        if self._conn is not None and self._conn.state.can_send:
            self._conn.send(tls.retry_ping())
        self._handshake_timer.start(self.HANDSHAKE_RETRY)

    def _finish(self) -> None:
        self._handshake_timer.release()
        super()._finish()

    def _attempt_failed(self, error: str) -> None:
        self._handshake_timer.cancel()
        if self._resuming and not self._tls_established:
            # the ticket was rejected (e.g. not in the flow store); forget
            # it so the retry -- a fresh connection -- does a full handshake
            if self.session_cache is not None:
                self.session_cache.pop(self.sni, None)
            self._resuming = False
        super()._attempt_failed(error)
