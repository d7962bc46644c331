"""TCP endpoints: a per-host stack and per-connection state machines.

Clients and backend servers run real TCP through these classes.  The state
machine covers everything the paper's experiments exercise:

- three-way handshake with retransmitted SYN / SYN-ACK (3 s initial RTO,
  matching the Ubuntu behaviour the paper cites in Section 4.2);
- MSS segmentation, cumulative ACKs, out-of-order reassembly;
- slow start / congestion avoidance, fast retransmit, and RTO with
  exponential backoff starting at 300 ms (the retransmissions visible in
  Figure 12(b));
- FIN teardown, TIME_WAIT, RST on unknown flows (what a live HAProxy
  instance does when a failed peer's flow is rerouted to it).

Applications implement :class:`ConnectionHandler` and drive
:class:`TcpConnection.send` / :meth:`TcpConnection.close`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import TcpError
from repro.net.addresses import Endpoint, EphemeralPorts
from repro.net.host import Host
from repro.net.packet import ACK, FIN, PSH, RST, SYN, Packet
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.process import Timer
from repro.sim.random import stable_hash32
from repro.tcp.config import TcpConfig
from repro.tcp.segment import SEQ_HALF as _HALF, SEQ_MASK as _MASK
from repro.tcp.segment import seq_add, seq_diff, seq_lt
from repro.tcp.state import TcpState

ConnKey = Tuple[Endpoint, Endpoint]  # (local, remote)

# The per-segment methods (_on_packet, _handle, _process_ack, _register_ack,
# _process_data, _deliver, _pump, _send_flags) make no helper calls: they
# spell sequence arithmetic as the two mask expressions tcp/segment.py
# defines, test ``pkt.flags & BIT``, and compare ``state`` with these module
# globals -- attribute access on an Enum class costs ~0.1 us in CPython
# 3.11, and an Enum member hashes through a python-level ``__hash__``,
# which is why the states _pump sits out are a tuple and not a frozenset.
_CLOSED = TcpState.CLOSED
_SYN_SENT = TcpState.SYN_SENT
_SYN_RCVD = TcpState.SYN_RCVD
_ESTABLISHED = TcpState.ESTABLISHED
_CLOSE_WAIT = TcpState.CLOSE_WAIT
_TIME_WAIT = TcpState.TIME_WAIT
_NO_PUMP = (_CLOSED, _SYN_SENT, _SYN_RCVD, _TIME_WAIT)


class ConnectionHandler:
    """Application callbacks; subclass and override what you need."""

    def on_connected(self, conn: "TcpConnection") -> None:
        """Handshake completed; the connection is ESTABLISHED."""

    def on_data(self, conn: "TcpConnection", data: bytes) -> None:
        """In-order application bytes arrived."""

    def on_remote_close(self, conn: "TcpConnection") -> None:
        """The peer sent FIN; no more data will arrive."""

    def on_closed(self, conn: "TcpConnection") -> None:
        """The connection reached CLOSED/TIME_WAIT cleanly."""

    def on_error(self, conn: "TcpConnection", reason: str) -> None:
        """The connection was aborted ("reset" or "timeout")."""


HandlerFactory = Callable[["TcpConnection"], ConnectionHandler]

# what a connection calls once it has let go of its handler: every
# callback is a no-op, and it holds nothing
_DETACHED = ConnectionHandler()


class TcpStack:
    """Demultiplexes a host's packets to listeners and connections."""

    def __init__(
        self,
        host: Host,
        loop: EventLoop,
        config: Optional[TcpConfig] = None,
    ):
        self.host = host
        self.loop = loop
        self.config = config or TcpConfig()
        # keyed by the (local, remote) endpoint *texts*: cached strings,
        # hashed in C, where an Endpoint pair hashes through two
        # python-level dataclass __hash__ calls per segment
        self._conns: Dict[Tuple[str, str], TcpConnection] = {}
        self._listeners: Dict[int, HandlerFactory] = {}
        self._ports = EphemeralPorts()
        self._isn_counter = 0
        host.set_handler(self._on_packet)

    # -- API -----------------------------------------------------------------
    def listen(self, port: int, factory: HandlerFactory) -> None:
        """Accept connections to ``port`` on any IP this host owns."""
        if port in self._listeners:
            raise TcpError(f"port {port} already listening on {self.host.name}")
        self._listeners[port] = factory

    def connect(
        self,
        remote: Endpoint,
        handler: ConnectionHandler,
        local_ip: Optional[str] = None,
        local_port: Optional[int] = None,
        obs_ctx: Optional[Tuple[int, int]] = None,
    ) -> "TcpConnection":
        """Actively open a connection to ``remote``.

        ``obs_ctx`` is an observability trace context; when tracing is
        enabled every segment of this connection carries it in
        ``Packet.meta`` so downstream components join the same trace.
        """
        ip = local_ip or self.host.ip
        if local_port is None:
            # skip ports still held by live/TIME_WAIT connections
            for _ in range(EphemeralPorts.HIGH - EphemeralPorts.LOW + 1):
                local = Endpoint(ip, self._ports.next())
                if (local.text, remote.text) not in self._conns:
                    break
            else:
                raise TcpError(f"ephemeral ports exhausted toward {remote}")
        else:
            local = Endpoint(ip, local_port)
            if (local.text, remote.text) in self._conns:
                raise TcpError(f"connection {local} -> {remote} already exists")
        conn = TcpConnection(self, local, remote, handler)
        conn.obs_ctx = obs_ctx
        self._register(conn)
        conn._active_open()
        return conn

    def connections(self) -> Dict[ConnKey, "TcpConnection"]:
        return {(conn.local, conn.remote): conn
                for conn in self._conns.values()}

    def choose_isn(self, local: Endpoint, remote: Endpoint) -> int:
        if self.config.isn_fn is not None:
            return self.config.isn_fn(f"{local}-{remote}")
        self._isn_counter += 1
        return stable_hash32(f"{local}-{remote}", salt=str(self._isn_counter))

    # -- plumbing --------------------------------------------------------------
    def _register(self, conn: "TcpConnection") -> None:
        self._conns[(conn.local.text, conn.remote.text)] = conn

    def _unregister(self, conn: "TcpConnection") -> None:
        self._conns.pop((conn.local.text, conn.remote.text), None)

    def _transmit(self, packet: Packet) -> None:
        self.host.send(packet)

    def _on_packet(self, pkt: Packet) -> None:
        conn = self._conns.get((pkt.dst.text, pkt.src.text))
        if conn is not None:
            conn._handle(pkt)
            return
        flags = pkt.flags
        if flags & SYN and not flags & ACK:
            factory = self._listeners.get(pkt.dst.port)
            if factory is not None:
                conn = TcpConnection(self, local=pkt.dst, remote=pkt.src, handler=None)
                conn.handler = factory(conn)
                self._register(conn)
                conn._passive_open(pkt)
                return
        if not flags & RST:
            # RFC 793: reset unknown flows.  This is what makes a rerouted
            # flow visibly break when it lands on a proxy with no state.
            rst_seq = pkt.ack if flags & ACK else 0
            self._transmit(
                Packet(pkt.dst, pkt.src, flags=RST | ACK, seq=rst_seq,
                       ack=seq_add(pkt.seq, max(pkt.seq_span, 1)))
            )


class TcpConnection:
    """One TCP connection's full state machine."""

    __slots__ = (
        "stack", "loop", "config", "local", "remote", "handler", "state",
        "iss", "_snd_una", "_snd_nxt", "_snd_buf", "_snd_buf_seq",
        "_fin_queued", "_fin_sent_seq", "_cwnd", "_ssthresh", "_dupacks",
        "_recovery_point", "irs", "_rcv_nxt", "_reasm", "_remote_fin_seen",
        "_retx_timer", "_time_wait_timer", "_rto", "_retries", "bytes_sent",
        "bytes_received", "retransmit_count", "opened_at", "established_at",
        "closed_at", "obs_ctx",
    )

    def __init__(
        self,
        stack: TcpStack,
        local: Endpoint,
        remote: Endpoint,
        handler: Optional[ConnectionHandler],
    ):
        self.stack = stack
        self.loop = stack.loop
        self.config = stack.config
        self.local = local
        self.remote = remote
        self.handler: ConnectionHandler = handler or ConnectionHandler()
        self.state = TcpState.CLOSED

        # send side
        self.iss = stack.choose_isn(local, remote)
        self._snd_una = self.iss
        self._snd_nxt = self.iss
        self._snd_buf = bytearray()  # bytes in [snd_buf_seq, ...), unacked+unsent
        self._snd_buf_seq = seq_add(self.iss, 1)
        self._fin_queued = False
        self._fin_sent_seq: Optional[int] = None
        self._cwnd = self.config.initial_cwnd_bytes
        self._ssthresh = 1 << 30
        self._dupacks = 0
        self._recovery_point: Optional[int] = None  # NewReno fast recovery

        # receive side
        self.irs = 0
        self._rcv_nxt = 0
        self._reasm: Dict[int, bytes] = {}
        self._remote_fin_seen = False

        # timers & accounting
        self._retx_timer = Timer(self.loop, self._on_rto)
        self._time_wait_timer = Timer(self.loop, self._time_wait_done)
        self._rto = self.config.data_rto_initial
        self._retries = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmit_count = 0
        self.opened_at = self.loop.now()
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.obs_ctx: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ API --
    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self._fin_queued:
            raise TcpError("send() after close()")
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT, TcpState.LAST_ACK,
                          TcpState.CLOSING, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
            raise TcpError(f"send() in state {self.state.value}")
        self._snd_buf.extend(data)
        self._pump()

    def close(self) -> None:
        """Graceful close: FIN after all queued data is sent."""
        if self._fin_queued or self.state is TcpState.CLOSED:
            return
        self._fin_queued = True
        self._pump()

    def abort(self, reason: str = "aborted") -> None:
        """Hard close: send RST, drop all state.  A closed connection has
        neither, so aborting one does nothing."""
        if self.state is TcpState.CLOSED:
            return
        if self.state.synchronized:
            self.stack._transmit(
                Packet(self.local, self.remote, flags=RST | ACK,
                       seq=self._snd_nxt, ack=self._rcv_nxt)
            )
        self._teardown(error=reason)

    def detach(self) -> None:
        """Let go of the handler: every later callback is a no-op.  An
        application that abandons a connection detaches it, then aborts
        it, so neither the abort's ``on_error`` nor anything the peer
        still sends reaches the application."""
        self.handler = _DETACHED

    def probe(self) -> None:
        """Send a pure ACK at the current position (a keepalive nudge).

        Long-lived clients use this when a stream stalls: at the LB the
        unknown-flow ACK is exactly what triggers client-side flow
        recovery, so a download whose instance died resumes without
        waiting for a retransmission timer.
        """
        if self.state.synchronized:
            self._send_ack()

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    # ------------------------------------------------------------- handshake --
    def _active_open(self) -> None:
        self.state = TcpState.SYN_SENT
        self._snd_una = self.iss
        self._snd_nxt = seq_add(self.iss, 1)
        self._send_flags(SYN, seq=self.iss, with_ack=False)
        self._rto = self.config.syn_rto
        self._retx_timer.start(self._rto)

    def _passive_open(self, syn: Packet) -> None:
        if OBS.enabled:
            # adopt the client's trace context, so the server side of the
            # connection reports into the same trace
            ctx = syn.meta.get("obs_ctx")
            if ctx is not None:
                self.obs_ctx = ctx
        self.state = TcpState.SYN_RCVD
        self.irs = syn.seq
        self._rcv_nxt = seq_add(syn.seq, 1)
        self._snd_una = self.iss
        self._snd_nxt = seq_add(self.iss, 1)
        self._send_flags(SYN | ACK, seq=self.iss)
        self._rto = self.config.syn_rto
        self._retx_timer.start(self._rto)

    # ------------------------------------------------------------ packet I/O --
    def _send_flags(self, flags: int, seq: int, with_ack: bool = True,
                    payload: bytes = b"") -> None:
        if with_ack:
            pkt = Packet(self.local, self.remote, flags | ACK, seq,
                         self._rcv_nxt, payload)
        else:
            pkt = Packet(self.local, self.remote, flags, seq, 0, payload)
        if OBS.enabled and self.obs_ctx is not None:
            pkt.meta["obs_ctx"] = self.obs_ctx
        self.stack.host.send(pkt)

    def _send_ack(self) -> None:
        self._send_flags(ACK, seq=self._snd_nxt)

    def _handle(self, pkt: Packet) -> None:
        flags = pkt.flags
        if flags & RST:
            self._handle_rst(pkt)
            return
        state = self.state
        if state is not _ESTABLISHED:
            if state is _SYN_SENT:
                self._handle_syn_sent(pkt)
                return
            if state is _SYN_RCVD and flags & SYN and not flags & ACK:
                # duplicate SYN from the client: re-send SYN-ACK
                self._send_flags(SYN | ACK, seq=self.iss)
                return
            if state is _TIME_WAIT:
                if flags & FIN:
                    self._send_ack()  # re-ACK a retransmitted FIN
                return
        if flags & ACK:
            self._process_ack(pkt)
        if self.state is _CLOSED:
            return
        if pkt.payload or flags & FIN:
            self._process_data(pkt)
        self._pump()

    def _handle_rst(self, pkt: Packet) -> None:
        # Accept RST only if plausibly in-window (loose check: not stale).
        if self.state is TcpState.CLOSED:
            return
        self._teardown(error="reset")

    def _handle_syn_sent(self, pkt: Packet) -> None:
        if pkt.syn and pkt.has_ack and pkt.ack == seq_add(self.iss, 1):
            self.irs = pkt.seq
            self._rcv_nxt = seq_add(pkt.seq, 1)
            self._snd_una = pkt.ack
            self._retx_timer.cancel()
            self._retries = 0
            self._rto = self.config.data_rto_initial
            self.state = TcpState.ESTABLISHED
            self.established_at = self.loop.now()
            self._send_ack()
            self.handler.on_connected(self)
            self._pump()

    def _process_ack(self, pkt: Packet) -> None:
        ack = pkt.ack
        if self.state is _SYN_RCVD:
            if ack == seq_add(self.iss, 1):
                self._snd_una = ack
                self._retx_timer.cancel()
                self._retries = 0
                self._rto = self.config.data_rto_initial
                self.state = TcpState.ESTABLISHED
                self.established_at = self.loop.now()
                self.handler.on_connected(self)
            else:
                return
        acked = ((ack - self._snd_una + _HALF) & _MASK) - _HALF
        if acked > 0:
            # accepted only in window: ack <= snd_nxt
            if ((ack - self._snd_nxt + _HALF) & _MASK) - _HALF <= 0:
                self._register_ack(ack, acked)
        elif acked == 0 and not pkt.payload and not pkt.flags & (SYN | FIN):
            self._dupacks += 1
            if self._dupacks == self.config.dupack_threshold:
                self._fast_retransmit()

    def _register_ack(self, ack: int, acked_bytes: int) -> None:
        self._dupacks = 0
        # trim the send buffer
        buffered_acked = ((ack - self._snd_buf_seq + _HALF) & _MASK) - _HALF
        if buffered_acked > 0:
            snd_buf = self._snd_buf
            n = buffered_acked if buffered_acked < len(snd_buf) else len(snd_buf)
            del snd_buf[:n]
            self._snd_buf_seq = (self._snd_buf_seq + n) & _MASK
        self._snd_una = ack
        # congestion window growth
        mss = self.config.mss
        if self._cwnd < self._ssthresh:
            self._cwnd += acked_bytes if acked_bytes < mss else mss
        else:
            self._cwnd += max(1, mss * mss // self._cwnd)
        # retransmission timer management: the ACK was accepted in window
        # (snd_una < ack <= snd_nxt), so data is still in flight exactly
        # when it stops short of snd_nxt
        self._retries = 0
        self._rto = rto = self.config.data_rto_initial
        if ack != self._snd_nxt:
            self._retx_timer.start(rto)
        else:
            self._retx_timer.cancel()
        # NewReno partial-ACK handling: while recovering from loss, each
        # ACK that does not cover the recovery point exposes the next hole;
        # retransmit it immediately instead of waiting out another RTO.
        if self._recovery_point is not None:
            if seq_lt(ack, self._recovery_point):
                self.retransmit_count += 1
                self._retransmit_oldest()
            else:
                self._recovery_point = None
        # FIN acked?  (a bulk sender queues its FIN behind the last byte, so
        # every ACK of the final window meets this test)
        fin_seq = self._fin_sent_seq
        if (fin_seq is not None
                and ((ack - fin_seq + _HALF) & _MASK) - _HALF > 0):
            self._on_fin_acked()

    def _on_fin_acked(self) -> None:
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._teardown(closed=True)

    def _process_data(self, pkt: Packet) -> None:
        payload = pkt.payload
        seq = pkt.seq
        advanced = False
        if payload:
            offset = ((self._rcv_nxt - seq + _HALF) & _MASK) - _HALF
            if offset < 0:
                # future segment: stash for reassembly
                self._reasm[seq] = payload
            elif offset < len(payload):
                self._deliver(payload[offset:])
                advanced = True
                if self._reasm:
                    self._drain_reasm()
            # else: entirely duplicate -- just re-ACK below
        # FIN occupies the sequence slot after the payload
        if pkt.flags & FIN:
            fin_seq = (seq + len(payload)) & _MASK
            if fin_seq == self._rcv_nxt and not self._remote_fin_seen:
                self._remote_fin_seen = True
                self._rcv_nxt = (self._rcv_nxt + 1) & _MASK
                advanced = True
                self._on_remote_fin()
        self._send_flags(ACK, self._snd_nxt)
        if advanced:
            self._dupacks = 0

    def _deliver(self, data: bytes) -> None:
        n = len(data)
        self._rcv_nxt = (self._rcv_nxt + n) & _MASK
        self.bytes_received += n
        self.handler.on_data(self, data)

    def _drain_reasm(self) -> None:
        while self._rcv_nxt in self._reasm:
            chunk = self._reasm.pop(self._rcv_nxt)
            self._deliver(chunk)

    def _on_remote_fin(self) -> None:
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT_1:
            # our FIN not yet acked -> simultaneous close
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        self.handler.on_remote_close(self)

    # ------------------------------------------------------------ transmit --
    def _pump(self) -> None:
        snd_buf = self._snd_buf
        if not snd_buf and not (self._fin_queued and self._fin_sent_seq is None):
            return  # a pure receiver: nothing buffered, no FIN owed
        if self.state in _NO_PUMP:
            return
        config = self.config
        while True:
            snd_nxt = self._snd_nxt
            unsent_off = ((snd_nxt - self._snd_buf_seq + _HALF) & _MASK) - _HALF
            unsent = len(snd_buf) - unsent_off
            if unsent > 0 and self._fin_sent_seq is None:
                window = self._cwnd if self._cwnd < config.rwnd else config.rwnd
                in_flight = ((snd_nxt - self._snd_una + _HALF) & _MASK) - _HALF
                budget = window - in_flight
                if budget > 0:
                    n = min(unsent, config.mss, budget)
                    chunk = bytes(snd_buf[unsent_off:unsent_off + n])
                    self._send_flags(ACK | PSH if n == unsent else ACK,
                                     snd_nxt, True, chunk)
                    self._snd_nxt = (snd_nxt + n) & _MASK
                    self.bytes_sent += n
                    if not self._retx_timer.armed:
                        self._retx_timer.start(self._rto)
                    continue
            if (self._fin_queued and self._fin_sent_seq is None and unsent == 0
                    and self.state in (_ESTABLISHED, _CLOSE_WAIT)):
                self._fin_sent_seq = snd_nxt
                self._send_flags(FIN | ACK, seq=snd_nxt)
                self._snd_nxt = (snd_nxt + 1) & _MASK
                self.state = (TcpState.FIN_WAIT_1 if self.state is _ESTABLISHED
                              else TcpState.LAST_ACK)
                if not self._retx_timer.armed:
                    self._retx_timer.start(self._rto)
            break

    # --------------------------------------------------------------- timers --
    def _on_rto(self) -> None:
        self._retries += 1
        if self._retries > self.config.max_retries:
            self._teardown(error="timeout")
            return
        self.retransmit_count += 1
        if self.state is TcpState.SYN_SENT:
            self._send_flags(SYN, seq=self.iss, with_ack=False)
        elif self.state is TcpState.SYN_RCVD:
            self._send_flags(SYN | ACK, seq=self.iss)
        else:
            self._retransmit_oldest()
            # RTO => multiplicative decrease, restart from one segment
            in_flight = max(seq_diff(self._snd_nxt, self._snd_una), self.config.mss)
            self._ssthresh = max(in_flight // 2, 2 * self.config.mss)
            self._cwnd = self.config.mss
            self._recovery_point = self._snd_nxt
        self._rto = min(self._rto * 2, self.config.rto_max)
        self._retx_timer.start(self._rto)

    def _retransmit_oldest(self) -> None:
        if (self._fin_sent_seq is not None and self._snd_una == self._fin_sent_seq):
            self._send_flags(FIN | ACK, seq=self._fin_sent_seq)
            return
        off = seq_diff(self._snd_una, self._snd_buf_seq)
        if 0 <= off < len(self._snd_buf):
            n = min(self.config.mss, len(self._snd_buf) - off)
            chunk = bytes(self._snd_buf[off:off + n])
            self._send_flags(ACK, seq=self._snd_una, payload=chunk)

    def _fast_retransmit(self) -> None:
        if not seq_lt(self._snd_una, self._snd_nxt):
            return
        self.retransmit_count += 1
        in_flight = max(seq_diff(self._snd_nxt, self._snd_una), self.config.mss)
        self._ssthresh = max(in_flight // 2, 2 * self.config.mss)
        self._cwnd = self._ssthresh
        self._recovery_point = self._snd_nxt
        self._retransmit_oldest()

    # ------------------------------------------------------------- teardown --
    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._retx_timer.cancel()
        self.handler.on_closed(self)
        self._time_wait_timer.start(self.config.time_wait)

    def _time_wait_done(self) -> None:
        self._teardown()  # the handler had on_closed entering TIME_WAIT

    def _teardown(self, error: Optional[str] = None,
                  closed: bool = False) -> None:
        """Enter CLOSED, then give the handler its last callback --
        ``on_error(error)`` for an abort, ``on_closed`` when ``closed`` --
        and let go of the handler and of both timers' callbacks.  Each is
        a reference cycle with this connection (conn -> handler -> conn
        for an application that keeps its connection, conn -> timer ->
        bound method -> conn always), so a closed connection is freed by
        its reference count, not by a cyclic collection."""
        self.state = TcpState.CLOSED
        self.closed_at = self.loop.now()
        self._retx_timer.release()
        self._time_wait_timer.release()
        self.stack._unregister(self)
        if error is not None:
            self.handler.on_error(self, error)
        elif closed:
            self.handler.on_closed(self)
        self.handler = _DETACHED

    def __repr__(self) -> str:
        return (f"TcpConnection({self.local} -> {self.remote}, "
                f"{self.state.value})")
