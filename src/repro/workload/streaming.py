"""Long-lived streaming download clients.

The multi-region failover experiments need flows that are *in flight* when
a whole region dies: a client mid-way through a chunked download whose
serving instance, flow store and backend all vanish at once.  The backends
pace ``/stream/<chunks>/<chunk_bytes>/<interval_ms>`` responses chunk by
chunk, so a download spans seconds of simulated time -- long enough to
straddle a region kill.

A plain request/response fetcher cannot survive that: after the kill the
client is silent (it has nothing left to send), so no packet ever reaches
the standby region to trigger flow recovery.  :class:`StreamingClient`
therefore keeps a stall timer and, when the stream goes quiet, nudges with
a pure ACK (:meth:`TcpConnection.probe`).  The ACK lands on a standby
instance, which recovers the flow from the replicated store and resumes
the transfer -- or, with replication disabled, finds nothing and resets us.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import HttpError
from repro.http.message import BodyDigest
from repro.http.parser import HttpParser
from repro.net.addresses import Endpoint
from repro.sim.events import EventLoop
from repro.sim.process import Timer
from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack


@dataclass
class StreamResult:
    """Outcome of one long-lived download."""

    path: str
    ok: bool = False
    error: Optional[str] = None  # "reset" | "bad-response" | "timeout" | ...
    started_at: float = 0.0
    established_at: Optional[float] = None  # response headers received
    finished_at: float = 0.0
    bytes_expected: int = 0
    bytes_received: int = 0
    stalls: int = 0  # probe nudges sent while the stream was quiet
    body: Optional[BodyDigest] = None  # the delivered body, once complete

    @property
    def complete(self) -> bool:
        return self.ok and self.bytes_received >= self.bytes_expected

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


# Patience per quiet period, not per transfer: every expiry sends a pure ACK
# and re-arms, up to ``max_stalls`` times.
STALL_TIMEOUT = 1.0
# Bounds the whole download as a backstop.
STREAM_DEADLINE = 120.0


class StreamingClient(ConnectionHandler):
    """Download one paced stream, probing through stalls instead of aborting."""

    def __init__(
        self,
        stack: TcpStack,
        loop: EventLoop,
        target: Endpoint,
        path: str,
        on_done: Callable[[StreamResult], None],
        max_stalls: int = 20,
    ):
        self.stack = stack
        self.loop = loop
        self.target = target
        self.path = path
        self.on_done = on_done
        self.max_stalls = max_stalls
        self.result = StreamResult(path=path, started_at=loop.now())
        self._parser = HttpParser("response")
        self._stall_timer = Timer(loop, self._stalled)
        self._deadline_timer = Timer(loop, lambda: self._abort("timeout"))
        self._conn: Optional[TcpConnection] = None
        self._finished = False

    def start(self) -> "StreamingClient":
        self._deadline_timer.start(STREAM_DEADLINE)
        self._stall_timer.start(STALL_TIMEOUT)
        self._conn = self.stack.connect(self.target, self)
        return self

    # -- TCP callbacks ------------------------------------------------------
    def on_connected(self, conn: TcpConnection) -> None:
        request = (
            f"GET {self.path} HTTP/1.0\r\n"
            f"Host: {self.target.ip}\r\n\r\n"
        ).encode()
        conn.send(request)

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        if self._finished:
            return
        self._stall_timer.start(STALL_TIMEOUT)
        parser, result = self._parser, self.result
        try:
            parsed = parser.feed(data)
        except HttpError:
            self._abort("bad-response")
            return
        if result.established_at is None and (parsed or parser.header_complete()):
            result.established_at = self.loop.now()
            result.bytes_expected = parser.body_length or 0
        if parsed:
            result.body = parsed[0].message.body
            result.bytes_expected = result.bytes_received = len(result.body)
            self._complete()
        else:
            result.bytes_received = parser.body_received

    def on_remote_close(self, conn: TcpConnection) -> None:
        # a complete response finished the stream where it arrived
        self._finish(False, "closed-early")

    def on_error(self, conn: TcpConnection, reason: str) -> None:
        if not self._finished:
            self._finish(False, "reset" if reason == "reset" else "tcp-timeout")

    # -- internals ----------------------------------------------------------
    def _stalled(self) -> None:
        """Stream went quiet: nudge so a surviving instance recovers us."""
        if self._finished:
            return
        self.result.stalls += 1
        if self.result.stalls > self.max_stalls:
            self._abort("stalled")
            return
        if self._conn is not None:
            self._conn.probe()
        self._stall_timer.start(STALL_TIMEOUT)

    def _abort(self, error: str) -> None:
        if self._conn is not None:
            # silently abandon the socket, as a browser does
            self._conn.detach()
            self._conn.abort("stream-" + error)
        self._finish(False, error)

    def _complete(self) -> None:
        if self._conn is not None and self._conn.state.can_send:
            self._conn.close()
        self._finish(True, None)

    def _finish(self, ok: bool, error: Optional[str]) -> None:
        if self._finished:
            return
        self._finished = True
        # let go of what ties the client into cycles: both timers' callbacks
        # and the connection (whose handler it is until it closes)
        self._stall_timer.release()
        self._deadline_timer.release()
        self._conn = None
        self.result.ok = ok
        self.result.error = error
        self.result.finished_at = self.loop.now()
        self.on_done(self.result)


class StreamingFleet:
    """Launch ``n`` staggered streaming downloads and collect results."""

    def __init__(
        self,
        stacks: List[TcpStack],
        loop: EventLoop,
        target: Endpoint,
        path: str,
        count: int,
        start_at: float = 0.0,
        spacing: float = 0.05,
        max_stalls: int = 20,
    ):
        self.stacks = stacks
        self.loop = loop
        self.target = target
        self.path = path
        self.count = count
        self.start_at = start_at
        self.spacing = spacing
        self.max_stalls = max_stalls
        self.results: List[StreamResult] = []
        self.clients: List[StreamingClient] = []

    def start(self) -> None:
        for i in range(self.count):
            stack = self.stacks[i % len(self.stacks)]
            delay = self.start_at + i * self.spacing
            self.loop.call_later(delay, lambda s=stack: self._launch(s))

    def _launch(self, stack: TcpStack) -> None:
        client = StreamingClient(
            stack, self.loop, self.target, self.path, self.results.append,
            max_stalls=self.max_stalls,
        )
        self.clients.append(client)
        client.start()

    # -- analysis ------------------------------------------------------------
    def completed(self) -> int:
        return sum(1 for r in self.results if r.complete)

    def broken(self) -> int:
        return sum(1 for r in self.results if not r.complete)

    def unfinished(self) -> int:
        return self.count - len(self.results)
