"""The YODA instance: a user-level packet driver (paper Sections 4 and 6).

An instance never owns an end-to-end TCP connection.  It:

1. **Connection phase** -- answers a client SYN with a SYN-ACK whose
   sequence number is a hash of the client's IP:port (so every instance
   would answer identically), *after* persisting the client SYN to
   TCPStore (storage-a); collects the HTTP header; selects a backend via
   the rule table; opens the backend connection *reusing the client's
   initial sequence number* so client->server packets never need sequence
   rewriting; persists the server connection (storage-b) *before* ACKing
   the backend's SYN-ACK.
2. **Tunneling phase** -- rewrites addresses and translates server->client
   sequence numbers by the constant C - S (Figure 4); TCP congestion
   control stays at the endpoints.
3. **Recovery** -- packets for flows it has never seen trigger a TCPStore
   lookup (by client 4-tuple for client-side packets, by VIP SNAT port for
   server-side packets); the retrieved state is enough to resume
   forwarding mid-flow, which is the paper's headline mechanism.

A flow's phase is its one state machine: a row of the flow table
(``_Phase``), one cell per event -- client packet, server packet, store
reply, timer.  ``YodaInstance`` looks the flow up and calls the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.flowstate import FlowPhase, FlowState, flow_key, yoda_isn
from repro.core.policy import VipPolicy
from repro.core.selector import (AllHealthy, BackendView, RuleTable,
                                  SelectionResult)
from repro.core.tcpstore import TcpStore
from repro.errors import HttpError, SlowClientTimeout, SnatExhausted
from repro.http import tls
from repro.http.server import STREAM_PATH_PREFIX
from repro.http.message import HttpRequest
from repro.http.parser import HttpParser, request_head
from repro.l4lb.snat import SnatPorts
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.packet import ACK, FIN, IP_TCP_HEADER_BYTES, RST, SYN, Packet
from repro.obs import OBS
from repro.qos.config import QosConfig
from repro.qos.plane import InstanceQos
from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry
from repro.sim.process import PeriodicTask, Timer
from repro.sim.random import SeededRng
from repro.tcp.segment import SEQ_HALF, SEQ_MASK, seq_add, seq_diff

SERVER_SYN_RTO = 3.0
SERVER_SYN_RETRIES = 3
# How long a freshly-draining instance still ACCEPTS new SYNs: the
# drain-start push needs a propagation round-trip to pull it from every mux
# ring, and refusing a SYN ring-routed here meanwhile costs its client a
# full SYN-RTO (3 s, an SLO miss by itself).  Flows are short next to the
# forced-drain deadline, so the few admitted finish long before it.
DRAIN_SYN_GRACE = 0.5
FLOW_LINGER = 1.0
FLOW_IDLE_TIMEOUT = 120.0
# A flow that has moved no packets for this long stops claiming its
# TCPStore records as durable (durable_records): a false failure detection
# that bounces a flow away and back leaves a recovered copy here that sees
# no more packets -- it must not keep the records "owned" (tripping the
# replication monitor) or re-replicate them after the owner's delete.
DURABLE_STALE_HORIZON = 2.0
MSS = 1460
CERT_RETRANSMIT = 0.5
# Long-lived (streaming) flows checkpoint their client-acknowledged
# response watermark to TCPStore every this-many bytes of progress, so a
# takeover after the backend died too can resume the stream.
CHECKPOINT_BYTES = 32_768


@dataclass
class YodaCostModel:
    """Per-instance cost calibration.

    ``packet_cpu_*`` drive utilization/saturation (Section 7.1: a YODA
    instance saturates around 12K small req/s -- roughly 2x HAProxy's CPU,
    attributed to user/kernel packet copies).  ``packet_latency`` is the
    per-packet processing delay of the user-space nfqueue driver.
    ``scan_cpu_per_rule`` is the CPU side of rule scanning; its latency
    side lives in :class:`~repro.core.selector.ScanCostModel`.
    """

    packet_cpu_base: float = 4.0e-6
    packet_cpu_per_byte: float = 1.5e-9
    packet_latency: float = 4.0e-4
    scan_cpu_base: float = 5.0e-6
    scan_cpu_per_rule: float = 5.0e-8

    def packet_cost(self, pkt: Packet) -> float:
        return self.packet_cpu_base + self.packet_cpu_per_byte * (
            IP_TCP_HEADER_BYTES + len(pkt.payload))

    def scaled(self, factor: float) -> "YodaCostModel":
        """Per-packet CPU cost times ``factor``: experiments shrink request
        rates and grow the cost to match, so utilization stays the paper's."""
        return replace(self,
                       packet_cpu_base=self.packet_cpu_base * factor,
                       packet_cpu_per_byte=self.packet_cpu_per_byte * factor)


class _TlsFlow:
    """The TLS stage of one flow on a certificate-bearing VIP: SSL
    termination (Section 5.2).  It drives the handshake from the client's
    records, serves the certificate flight from the first unacked byte
    (again on a timer or a retry ping), checks resumption tickets against
    the flow store, and replays the stored hello when a takeover recovers
    the flow mid-handshake.  Its methods take the instance (the static
    ones are cells of the flow table)."""

    __slots__ = ("codec", "records", "hello_done", "sni", "resumed",
                 "ticket_issued", "resp_out", "resp_acked", "cert_timer",
                 "request")

    def __init__(self) -> None:
        self.codec = tls.TlsCodec()
        self.records: List = []  # client records not yet acted on
        self.hello_done = False
        self.sni = ""
        # session resumption (tickets keyed in the flow store)
        self.resumed = False
        self.ticket_issued = False
        self.resp_out = b""  # instance-originated bytes (the cert flight)
        self.resp_acked = 0
        self.cert_timer: Optional[Timer] = None
        # the decrypted request header selection ran on (None until then)
        self.request: Optional[HttpRequest] = None

    def progress(self, inst: "YodaInstance", flow: "_LocalFlow",
                 policy: VipPolicy) -> None:
        """Drive the TLS state machine from the parsed client records."""
        while self.records:
            rtype, payload = self.records.pop(0)
            if rtype == tls.CLIENT_HELLO and not self.hello_done:
                # store-before-ACK: the certificate flight acknowledges the
                # hello, so the hello bytes must be recoverable first
                flow.state.client_prefix = bytes(flow.req_assembled)
                ticket = self.read_hello(payload, policy)
                if ticket is None:
                    self.store_hello(inst, flow)
                    continue
                # abbreviated handshake: validate the ticket against the
                # flow store BEFORE committing a single response byte -- an
                # accepted-then-unknown ticket would desync the backend's
                # deterministic handshake replay
                inst.tcpstore.get_ticket(ticket, partial(
                    inst._on_reply, flow.state.key, _TlsFlow.ticket_checked,
                    ticket))
            elif rtype == tls.RETRY_PING:
                # a stalled client nudging after a failover: resend from
                # the first unacked byte (client TCP discards duplicates)
                if self.hello_done and self.resp_acked < len(self.resp_out):
                    self.send_cert_flight(inst, flow)
            elif rtype == tls.APP_DATA and self.request is None:
                # decrypt the request header and select the backend
                try:
                    request = request_head(payload)
                except HttpError:
                    inst._reset_client(flow, "bad_requests", "bad_request")
                    return
                if request is not None:
                    self.request = request
                    _dispatch_selection(inst, flow, policy, request)
            elif rtype == tls.KEY_EXCHANGE:
                # the key is derivable by all; after a *full* handshake a
                # session ticket is issued here (appended to the flight,
                # mirrored by the backend, keyed into the flow store so
                # resumption survives instance and region failover)
                if (policy.session_tickets and not inst.stateless
                        and not self.resumed and not self.ticket_issued):
                    self.ticket_issued = True
                    ticket = tls.ticket_for(self.sni)
                    self.resp_out += tls.session_ticket(ticket)
                    inst.metrics.counter("tls_tickets_issued").inc()
                    inst.tcpstore.put_ticket(ticket, self.sni)
                    self.send_cert_flight(inst, flow)

    def read_hello(self, payload: bytes, policy: VipPolicy) -> Optional[str]:
        """Take in a client hello -- live, or replayed from the stored
        prefix by a takeover: note its SNI and return the resumption ticket
        it offers, or None if it offers none or the VIP honours none."""
        self.hello_done = True
        self.sni, ticket = tls.parse_hello(payload)
        return ticket if policy.session_tickets else None

    def store_hello(self, inst: "YodaInstance", flow: "_LocalFlow") -> None:
        """Storage-a's second write on a TLS VIP: the client record again,
        now carrying the hello prefix the flight will acknowledge (the SYN
        write's span ended when that write did)."""
        _store(inst, flow, "storage_a", inst.tcpstore.store_client_syn,
               _TlsFlow.hello_stored)

    @staticmethod
    def ticket_checked(inst: "YodaInstance", flow: "_LocalFlow", ticket: str,
                       value: Optional[bytes]) -> None:
        """AWAIT_HEADER's reply to a resumption ticket lookup."""
        if value is None:
            # unknown ticket: refuse resumption outright (the client falls
            # back to a full handshake); serving a certificate instead
            # would leave the backend, which trusts ticket-bearing hellos,
            # replaying a shorter flight than the one we suppressed
            inst._reset_client(flow, "tls_tickets_rejected",
                               "tls_ticket_rejected", len(flow.req_assembled))
            return
        inst.metrics.counter("tls_tickets_resumed").inc()
        if OBS.enabled:
            OBS.flight(inst.name, "tls_ticket_resumed", flow.state.key)
        flow.tls.resumed = True
        flow.tls.resp_out = tls.session_ticket(ticket)
        # store-before-ACK still holds: persist the hello prefix, then send
        # the abbreviated flight (the stored prefix carrying a ticket is
        # what marks this flow as a validated resumption for recovery)
        flow.tls.store_hello(inst, flow)

    @staticmethod
    def hello_stored(inst: "YodaInstance", flow: "_LocalFlow", t0: float,
                     ok: bool) -> None:
        """AWAIT_HEADER's reply to the hello write: storage-a holds the
        hello, so serve the flight that acknowledges it."""
        if not _storage_a_done(inst, flow, t0, ok):
            return
        policy = inst.policies.get(flow.state.vip.ip)
        if policy is None or policy.certificate is None:
            return
        if not flow.tls.resp_out:
            flow.tls.resp_out = tls.certificate_flight(policy.certificate)
        flow.tls.send_cert_flight(inst, flow)

    def client_ack(self, state: FlowState, ack: int) -> None:
        """Track how much of the flight the client holds; a fully acked
        flight disarms its retransmission timer."""
        acked = seq_diff(ack, seq_add(state.yoda_isn, 1))
        if acked > self.resp_acked:
            self.resp_acked = min(acked, len(self.resp_out))
            if self.resp_acked >= len(self.resp_out) and self.cert_timer:
                self.cert_timer.cancel()

    def send_cert_flight(self, inst: "YodaInstance", flow: "_LocalFlow") -> None:
        """(Re)send the certificate from the first unacked byte; any
        instance produces identical bytes, so a resend after failover is
        transparent (Section 5.2)."""
        state = flow.state
        data = self.resp_out[self.resp_acked:]
        base = seq_add(state.yoda_isn, 1 + self.resp_acked)
        ack = seq_add(state.client_isn, 1 + len(flow.req_assembled))
        for off in range(0, len(data), MSS):
            inst._send(Packet(src=state.vip, dst=state.client, flags=ACK,
                              seq=seq_add(base, off), ack=ack,
                              payload=data[off:off + MSS]))
        if self.cert_timer is None:
            # keyed by the flow, so the timer holds no reference to it
            self.cert_timer = Timer(inst.loop, partial(
                inst._on_timer, state.key, _TlsFlow.resend, True))
        self.cert_timer.start(CERT_RETRANSMIT)

    @staticmethod
    def resend(inst: "YodaInstance", flow: "_LocalFlow", rto: bool) -> None:
        """A timer of every phase the flight can be out in: resend it -- on
        its retransmission timer (``rto``) only while some of it is
        unacked, after a takeover's hello replay unconditionally."""
        if not rto or flow.tls.resp_acked < len(flow.tls.resp_out):
            flow.tls.send_cert_flight(inst, flow)

    def recover(self, inst: "YodaInstance", flow: "_LocalFlow",
                policy: VipPolicy) -> None:
        """Rebuild the stage of a flow a takeover recovered: the flight it
        owes and, mid-handshake, the stored hello -- replayed through our
        own codec, then the entire flight resent (the client's TCP discards
        the duplicate segments, paper 5.2)."""
        state = flow.state
        self.resp_out = tls.certificate_flight(policy.certificate)
        if not state.client_prefix or state.established:
            return
        flow.req_assembled = bytearray(state.client_prefix)
        records = self.codec.feed(state.client_prefix)
        for rtype, payload in records:
            if rtype != tls.CLIENT_HELLO:
                continue
            ticket = self.read_hello(payload, policy)
            if ticket is not None:
                # the dead instance only persists a ticketed hello after
                # validating it, so resume the abbreviated flight rather
                # than the full one
                self.resumed = True
                self.resp_out = tls.session_ticket(ticket)
        self.records = [r for r in records if r[0] != tls.CLIENT_HELLO]
        if self.hello_done:
            inst.loop.call_soon(inst._on_timer, state.key, _TlsFlow.resend, False)


class _StreamFlow:
    """The stream stage of one long-lived flow (a path under /stream/).
    It checkpoints the client's acknowledged progress to TCPStore, hands
    that progress over when a forced drain lets the flow go, and on a
    takeover re-anchors a flow whose backend died onto a live one.  Its
    methods take the owning instance."""

    __slots__ = ("resumed", "client_acked")

    def __init__(self) -> None:
        self.resumed = False  # replaying from a replacement backend
        self.client_acked = 0  # response bytes the client has ACKed (stream coords)

    def client_ack(self, inst: "YodaInstance", flow: "_LocalFlow",
                   pkt: Packet, tunnelling: bool) -> None:
        """Take in the client's cumulative response ACK; a ``tunnelling``
        flow also checkpoints the progress it reports."""
        state = flow.state
        acked = seq_diff(pkt.ack, seq_add(state.yoda_isn, 1))
        if self.resumed:
            # it tells us exactly how much of the replayed response the
            # client already holds; raise the suppression point so the
            # replacement backend is never stuck retransmitting bytes whose
            # ACKs (beyond its snd_nxt) it would ignore
            sup = acked - state.response_offset
            if sup > state.tls_handshake_len:
                state.tls_handshake_len = sup
        if not tunnelling or acked <= self.client_acked:
            return
        # checkpoint every CHECKPOINT_BYTES of progress.  The watermark is
        # client-*acknowledged* bytes (not merely forwarded ones), so a
        # resume never suppresses bytes the client might not hold.
        self.client_acked = acked
        if inst.stateless:
            return  # progress is unrecoverable by design: no checkpoints
        if acked - state.resp_delivered < CHECKPOINT_BYTES:
            return
        state.resp_delivered = acked
        inst.metrics.counter("stream_checkpoints").inc()
        if OBS.enabled:
            OBS.flight(inst.name, "stream_checkpoint", f"{state.key} acked={acked}")
        inst.tcpstore.checkpoint(state)

    def hand_off(self, inst: "YodaInstance", flow: "_LocalFlow") -> None:
        """A forced drain lets the flow go: serialize its progress first, so
        the adopting instance resumes the download instead of replaying it
        from byte zero (or stalling on a dead backend with no watermark)."""
        state = flow.state
        if not state.established or inst.host.failed or inst.stateless:
            return
        if self.client_acked > state.resp_delivered:
            state.resp_delivered = self.client_acked
        inst.metrics.counter("handoff_checkpoints").inc()
        inst.tcpstore.checkpoint(state)

    def resume(self, inst: "YodaInstance", flow: "_LocalFlow",
               policy: VipPolicy) -> bool:
        """Re-anchor a recovered flow onto a live backend if the
        controller's health view says its stored one is down (the
        region-kill case); False leaves the flow to tunnel as stored.
        Tunneling to a dead backend would stall forever.  Instead: re-run
        selection on the stored request header, open a fresh backend
        connection, replay the request and let the new backend re-serve
        the deterministic response, suppressing with local ACKs all up to
        the client's checkpoint, as the duplicate TLS flight is."""
        state = flow.state
        backend = next((name for name, ep in policy.backends.items()
                        if ep == state.server), None)
        if backend is None or inst.backend_view.is_healthy(backend):
            return False
        request = request_head(state.replay_header)
        result = inst._select(policy, request) if request is not None else None
        if result is None:
            return False
        new_ep = policy.endpoint_of(result.backend)
        if new_ep == state.server:
            return False  # selection still points at the dead backend
        # allocate before touching flow state: exhaustion here must leave
        # the recovered flow exactly as the lookup produced it
        try:
            snat_port = inst.snat_ports.alloc(policy.vip)
        except SnatExhausted:
            return False
        inst.metrics.counter("stream_resumes").inc()
        if OBS.enabled:
            OBS.flight(inst.name, "stream_resume", f"{state.key} -> {result.backend}")
        self.resumed = True
        flow.req_assembled = bytearray(state.replay_header)
        # suppress response bytes the client is known to hold; client ACKs
        # raise this further as they arrive (client_ack above)
        sup = state.resp_delivered - state.response_offset
        if sup > state.tls_handshake_len:
            state.tls_handshake_len = sup
        _open_backend(inst, flow, new_ep, snat_port, state.request_offset)
        return True


class _LocalFlow:
    """In-memory flow record; everything durable lives in ``state``."""

    __slots__ = (
        "state", "phase", "parser", "parsed", "req_chunks", "req_assembled",
        "fin_client", "fin_server", "syn_timer", "syn_tries", "last_seen",
        "t_syn", "t_server_syn", "forwarded_req_bytes", "parsed_bytes",
        "requests_seen", "resp_high", "tls", "obs_ctx", "obs_spans",
        "qos_slot", "backend_name", "stream",
    )

    def __init__(self, state: FlowState, now: float):
        self.state = state
        # the row of the flow table the flow is in: its one state machine
        self.phase: _Phase = _SYN_STORING
        self.parser = HttpParser("request")
        self.parsed: List[HttpRequest] = []  # complete requests seen so far
        self.req_chunks: Dict[int, bytes] = {}  # offset -> payload
        self.req_assembled = bytearray()  # contiguous prefix of request bytes
        self.fin_client = False
        self.fin_server = False
        self.syn_timer: Optional[Timer] = None
        self.syn_tries = 0
        self.last_seen = now
        self.t_syn = now
        self.t_server_syn = 0.0
        self.forwarded_req_bytes = 0
        self.parsed_bytes = 0  # wire bytes consumed by completed requests
        # requests handled so far; None disables HTTP/1.1 backend switching
        # (set after recovery, when the request parser lost its context)
        self.requests_seen: Optional[int] = 0
        self.resp_high = 0  # response bytes of the CURRENT backend delivered
        self.tls: Optional[_TlsFlow] = None  # set on a certificate VIP
        # observability: the client's trace context and this flow's open
        # spans, keyed by stage name (None while the plane is disabled)
        self.obs_ctx = None
        self.obs_spans: Optional[Dict[str, object]] = None
        # overload control: whether this flow holds a limiter slot, and its
        # backend's rule-table name -- None for recovered flows, whose
        # connect outcome says nothing about backend health from here
        self.qos_slot = False
        self.backend_name: Optional[str] = None
        # the stream stage of a long-lived flow (a path under /stream/)
        self.stream: Optional[_StreamFlow] = None

    def buffer_request_bytes(self, offset: int, payload: bytes) -> None:
        """Accumulate client request bytes by stream offset, feeding the
        parser only with never-seen contiguous bytes."""
        if offset < 0:
            return
        have = len(self.req_assembled)
        if offset > have:
            self.req_chunks[offset] = payload
            return
        fresh = payload[have - offset:]
        if fresh:
            self.req_assembled.extend(fresh)
            self._feed(fresh)
        # drain any chunks made contiguous
        while self.req_chunks:
            have = len(self.req_assembled)
            chunk = self.req_chunks.pop(have, None)
            if chunk is None:
                nxt = min(self.req_chunks)
                if nxt > have:
                    break
                chunk = self.req_chunks.pop(nxt)
                chunk = chunk[have - nxt:]
            if chunk:
                self.req_assembled.extend(chunk)
                self._feed(chunk)

    def _feed(self, data: bytes) -> None:
        if self.tls:
            self.tls.records.extend(self.tls.codec.feed(data))
            return
        for item in self.parser.feed(data):
            # remember where each request started in the client stream so a
            # backend switch can re-base sequence numbers (Section 5.2)
            self.parsed.append((item.message, self.parsed_bytes))
            self.parsed_bytes += item.wire_bytes

    def enable_tls(self) -> None:
        self.tls = _TlsFlow()
        self.requests_seen = None  # backend switching is HTTP-only


# ============================================================ the flow table ==
# Its cells and the steps they share.  A packet cell is cell(instance,
# flow, packet, policy), a store-reply or timer cell cell(instance, flow,
# *what its call site bound).  A cell never looks its flow up or asks its
# phase; it moves the flow on by setting ``flow.phase``.

def _drop(inst, flow, pkt, policy) -> None:
    """A server packet before a backend is chosen: none can be routed here."""


# ----------------------------------------------------- connection phase --
def _client_unstored(inst, flow, pkt, policy) -> None:
    """SYN_STORING: storage-a has not answered, so a retransmitted SYN gets
    no SYN-ACK yet; anything else is taken as in AWAIT_HEADER."""
    if pkt.flags & (SYN | ACK) != SYN:
        _client_header(inst, flow, pkt, policy)


def _client_header(inst, flow, pkt, policy) -> None:
    """AWAIT_HEADER: collect the request and classify it once its header
    is in (on a TLS VIP, drive the handshake that carries it)."""
    if not _take_request_bytes(inst, flow, pkt):
        return
    if pkt.payload:
        if flow.tls:
            flow.tls.progress(inst, flow, policy)
        else:
            _select_and_connect(inst, flow, policy)
    if pkt.flags & FIN:
        # client gave up before we even picked a server
        flow.fin_client = True
        inst._destroy_flow(flow, remove_stored=True)


def _client_connecting(inst, flow, pkt, policy) -> None:
    """SERVER_SYN_SENT, SERVER_STORING: buffer the request for the backend."""
    if _take_request_bytes(inst, flow, pkt) and pkt.flags & FIN:
        flow.fin_client = True
        inst._destroy_flow(flow, remove_stored=True)


def _take_request_bytes(inst, flow, pkt) -> bool:
    """A client packet before the tunnel: a duplicate SYN, a RST, ACKs,
    request bytes (those that are not HTTP refused).  False if done."""
    flags = pkt.flags
    if flags & (SYN | ACK) == SYN:
        inst._send_syn_ack(flow)  # duplicate SYN: deterministic reply
        return False
    flow.last_seen = inst.loop.now()
    state = flow.state
    if flags & RST:
        inst._destroy_flow(flow, remove_stored=True)
        return False
    if flow.stream is not None and flags & ACK:
        flow.stream.client_ack(inst, flow, pkt, False)
    tls_flow = flow.tls
    if tls_flow and flags & ACK and tls_flow.resp_out:
        tls_flow.client_ack(state, pkt.ack)
    if pkt.payload:
        offset = seq_diff(pkt.seq, seq_add(state.client_isn, 1))
        try:
            flow.buffer_request_bytes(offset, pkt.payload)
        except HttpError:
            inst._reset_client(flow, "bad_requests", "bad_request")
            return False
    return True


def _select_and_connect(inst, flow, policy) -> None:
    """Classify a plain-HTTP flow once its first request header is in
    (its body may still be streaming); a malformed one is refused."""
    try:
        request = (flow.parsed[0][0] if flow.parsed
                   else request_head(bytes(flow.req_assembled)))
    except HttpError:
        inst._reset_client(flow, "bad_requests", "bad_request")
        return
    if request is not None:
        _dispatch_selection(inst, flow, policy, request)


def _dispatch_selection(inst, flow, policy, request: HttpRequest) -> None:
    """Classify a (possibly decrypted) request and start the backend
    connection after the rule-scan latency."""
    if request.path.startswith(STREAM_PATH_PREFIX) and not flow.tls:
        # a long-lived streaming download: checkpoint its progress and
        # keep enough context to re-select a backend after failures
        flow.stream = _StreamFlow()
    if flow.requests_seen is not None:
        flow.requests_seen = max(1, len(flow.parsed))
    result = inst._select(policy, request)
    cost = inst.cost
    inst.cpu.execute(cost.scan_cpu_base + cost.scan_cpu_per_rule * policy.rule_count,
                     phase="rule_scan")
    if result is None:
        inst._reset_client(flow, "no_backend")
        return
    inst.metrics.histogram("scan_latency").observe(result.scan_latency)
    inst.metrics.counter("selections").inc()
    if OBS.enabled:
        span = inst._obs_start(flow, "rule_scan")
        if span is not None:
            # the scan's latency elapses via call_later below; the span
            # covers exactly that window
            inst._obs_end(flow, "rule_scan",
                          end=span.start + result.scan_latency,
                          backend=result.backend)
    # the scan itself takes time (Figure 6) before the server SYN goes out
    inst.loop.call_later(result.scan_latency, inst._on_timer, flow.state.key,
                         _connect_server, result.backend, policy)


def _connect_server(inst, flow, backend: str, policy: VipPolicy) -> None:
    """AWAIT_HEADER's timer: the rule scan is over; connect to its pick."""
    state = flow.state
    flow.backend_name = backend
    server_ep = policy.endpoint_of(backend)
    try:
        snat_port = inst.snat_ports.alloc(policy.vip)
    except SnatExhausted:
        _refuse_exhausted(inst, flow)
        return
    if flow.tls:
        # the backend will replay the identical deterministic
        # handshake flight; remember how many bytes to suppress
        state.tls_handshake_len = len(flow.tls.resp_out)
    if flow.stream is not None:
        # the full request header, so a takeover instance can re-run
        # rule selection if this backend is dead by then; rides the
        # storage-b write
        state.replay_header = bytes(flow.req_assembled)
    _open_backend(inst, flow, server_ep, snat_port, 0)


def _refuse_exhausted(inst, flow) -> None:
    """SNAT exhaustion: refuse the flow with an RST and release the
    mux's 5-tuple pin *immediately*.  Without the release, the refused
    key stayed pinned to this instance for the full mux idle timeout,
    steering the client's remaining packets (and any same-5-tuple
    retry) at an instance that has no ports to serve them with."""
    inst._reset_client(flow, "snat_refused_flows", "snat_exhausted_refuse")
    if inst.l4lb is not None:
        inst.l4lb.release_flow(flow.state.client, flow.state.vip)


def _open_backend(inst, flow, server_ep: Endpoint, snat_port: int,
                  forwarded: int) -> None:
    """Point the flow at a backend and send it the SYN: the one place a
    backend connection opens (first connect, HTTP/1.1 switch, stream
    resume).  ``forwarded`` request bytes are already the backend's."""
    state = flow.state
    state.server = server_ep
    state.server_isn = None
    state.snat_port = snat_port
    state.phase = FlowPhase.SERVER_SYN_SENT.value
    flow.phase = _SERVER_SYN_SENT
    flow.forwarded_req_bytes = forwarded
    flow.syn_tries = 0
    inst.by_server[(str(server_ep), snat_port)] = state.key
    flow.t_server_syn = inst.loop.now()
    if OBS.enabled:
        inst._obs_start(flow, "server_connect")
    _send_server_syn(inst, flow)
    if flow.syn_timer is None:
        flow.syn_timer = Timer(inst.loop, partial(inst._on_timer, state.key,
                                                  _server_syn_rto))
    flow.syn_timer.start(SERVER_SYN_RTO)


def _send_server_syn(inst, flow) -> None:
    state = flow.state
    # Reuse the client's ISN (offset by any earlier requests) so the
    # client's data bytes flow to the server without seq rewriting.
    pkt = Packet(src=state.snat_src, dst=state.server, flags=SYN,
                 seq=seq_add(state.client_isn, state.request_offset))
    if OBS.enabled and flow.obs_ctx is not None:
        # the backend's passive open adopts the client's trace context
        pkt.meta["obs_ctx"] = flow.obs_ctx
    inst._send(pkt)


def _server_syn_rto(inst, flow) -> None:
    """Both server-connect phases' timer: resend the SYN, or give up."""
    flow.syn_tries += 1
    if flow.syn_tries > SERVER_SYN_RETRIES:
        if inst.qos is not None and flow.backend_name is not None:
            inst.qos.backend_failure(flow.backend_name)
        inst._reset_client(flow, "server_connect_failed")
        return
    _send_server_syn(inst, flow)
    flow.syn_timer.start(SERVER_SYN_RTO * (2 ** flow.syn_tries))


def _server_syn_sent(inst, flow, pkt, policy) -> None:
    """SERVER_SYN_SENT: the backend's SYN-ACK starts storage-b, which MUST
    complete before the ACK to the server (Figure 3)."""
    state = flow.state
    flags = pkt.flags
    if flags & RST:
        if state.established:  # back here after a failed storage-b write
            inst._send(inst._translate_to_client(flow, pkt))
            inst._destroy_flow(flow, remove_stored=True)
            return
        # refused during connect: that is breaker-relevant signal
        if inst.qos is not None and flow.backend_name is not None:
            inst.qos.backend_failure(flow.backend_name)
        inst._reset_client(flow)
        return
    if not (flags & SYN and flags & ACK) or pkt.ack != seq_add(
            state.client_isn, state.request_offset + 1):
        return
    state.server_isn = pkt.seq
    flow.phase = _SERVER_STORING
    state.phase = FlowPhase.TUNNEL.value  # the record storage-b writes
    _store(inst, flow, "storage_b", inst.tcpstore.store_server_conn, _server_stored)


def _server_storing(inst, flow, pkt, policy) -> None:
    """SERVER_STORING: storage-b in flight; only a backend RST is acted on."""
    if pkt.flags & RST:
        inst._send(inst._translate_to_client(flow, pkt))
        inst._destroy_flow(flow, remove_stored=True)


def _store(inst, flow, span: str, write, reply) -> None:
    """``write(state, on_done)`` the flow's record; its answer reaches the
    row's ``reply(inst, flow, t0, ok)``, which alone may ACK what it
    covers.  A stateless instance writes nothing and answers at once."""
    t0 = inst.loop.now()
    if inst.stateless:
        reply(inst, flow, t0, True)
        return
    if OBS.enabled:
        obs_span = inst._obs_start(flow, span)
        if obs_span is not None:
            OBS.ctx = OBS.tracer.ctx_of(obs_span)
    write(flow.state, partial(inst._on_reply, flow.state.key, reply, t0))
    OBS.ctx = None


def _storage_a_done(inst, flow, t0: float, ok: bool) -> bool:
    """Both storage-a replies (the SYN record; on a TLS VIP its rewrite
    with the hello); True if the write held.  A failed one acknowledged
    nothing: forget the flow here, keep whatever is stored, and the
    client's retransmitted SYN or hello starts over or recovers it."""
    if not ok:
        inst.metrics.counter("storage_a_failed").inc()
        if OBS.enabled:
            inst._obs_end(flow, "storage_a", ok=False)
            inst._obs_end(flow, "flow", ok=False)
            OBS.flight(inst.name, "storage_a_failed", flow.state.key)
        inst._stop_flow(flow)
        del inst.flows[flow.state.key]
        return False
    if not inst.stateless:  # no zero-latency samples from the fast path
        inst.metrics.histogram("storage_a_latency").observe(inst.loop.now() - t0)
    if OBS.enabled:
        inst._obs_end(flow, "storage_a", ok=True)
    return True


def _syn_stored(inst, flow, t0: float, ok: bool) -> None:
    """SYN_STORING's reply: the SYN is recoverable; SYN-ACK it (Figure 3)."""
    if _storage_a_done(inst, flow, t0, ok):
        flow.phase = _AWAIT_HEADER
        inst._send_syn_ack(flow)


def _server_stored(inst, flow, t0: float, ok: bool) -> None:
    """SERVER_STORING's reply: ACK the backend and open the tunnel; after a
    failed write the backend's SYN-ACK retransmit starts another."""
    state = flow.state
    if not ok:
        flow.phase = _SERVER_SYN_SENT
        state.phase = FlowPhase.SERVER_SYN_SENT.value
        inst.metrics.counter("storage_b_failed").inc()
        if OBS.enabled:
            inst._obs_end(flow, "storage_b", ok=False)
            OBS.flight(inst.name, "storage_b_failed", state.key)
        return
    if flow.syn_timer is not None:
        flow.syn_timer.cancel()
    now = inst.loop.now()
    if not inst.stateless:  # no zero-latency samples from the fast path
        inst.metrics.histogram("storage_b_latency").observe(now - t0)
    inst.metrics.histogram("server_connect_latency").observe(now - flow.t_server_syn)
    if OBS.enabled:
        inst._obs_end(flow, "storage_b", end=now, ok=True)
        inst._obs_end(flow, "server_connect", end=now, ok=True)
    if inst.qos is not None and flow.backend_name is not None:
        inst.qos.backend_success(flow.backend_name)
    inst._release_qos_slot(flow)  # flow left the connection phase
    flow.phase = _TUNNEL
    _send_server_handshake_ack(inst, flow)
    # replay the buffered request bytes, in the client's own sequence space
    data = bytes(flow.req_assembled[flow.forwarded_req_bytes:])
    base = seq_add(state.client_isn, 1 + flow.forwarded_req_bytes)
    for off in range(0, len(data), MSS):
        inst._send(Packet(
            src=state.snat_src, dst=state.server, flags=ACK,
            seq=seq_add(base, off), ack=seq_add(state.server_isn, 1),
            payload=data[off:off + MSS]))
    flow.forwarded_req_bytes += len(data)


def _send_server_handshake_ack(inst, flow) -> None:
    state = flow.state
    inst._send(Packet(
        src=state.snat_src, dst=state.server, flags=ACK,
        seq=seq_add(state.client_isn, state.request_offset + 1),
        ack=seq_add(state.server_isn, 1)))


# -------------------------------------------------------- tunnel phase --
def _client_tunnel(inst, flow, pkt, policy) -> None:
    """TUNNEL: pure translation -- except that HTTP/1.1 lets the client
    send further requests on the same connection, which may match a
    different rule and need a different backend (Section 5.2): a new
    request is re-classified and the backend switched if needed."""
    flags = pkt.flags
    if flags & (SYN | ACK) == SYN:
        inst._send_syn_ack(flow)
        return
    flow.last_seen = inst.loop.now()
    if flags & RST:
        if flow.state.established:  # (not after a refused switch)
            inst._send(inst._translate_to_server(flow, pkt))
        inst._destroy_flow(flow, remove_stored=True)
        return
    if flow.stream is not None and flags & ACK:
        flow.stream.client_ack(inst, flow, pkt, True)
    forward = True
    if pkt.payload and flow.requests_seen is not None:
        offset = seq_diff(pkt.seq, seq_add(flow.state.client_isn, 1))
        try:
            flow.buffer_request_bytes(offset, pkt.payload)
        except HttpError:
            # not ours to refuse: the backend reads the same bytes
            # and answers for them; only re-classification ends
            flow.requests_seen = None
        else:
            if len(flow.parsed) > flow.requests_seen:
                flow.requests_seen = len(flow.parsed)
                request, start_offset = flow.parsed[-1]
                if _maybe_switch_backend(inst, flow, request, start_offset,
                                         policy):
                    forward = False  # bytes go to the new backend
    closes = flags & FIN and not flow.fin_client and flow.fin_server
    if flags & FIN:
        flow.fin_client = True
    if forward:
        inst._send(inst._translate_to_server(flow, pkt))
    if closes:
        flow.phase = _CLOSING
        inst.loop.call_later(FLOW_LINGER, inst._on_timer, flow.state.key, _finish_flow)


def _client_closing(inst, flow, pkt, policy) -> None:
    """CLOSING: as TUNNEL, except that a client RST only ends the flow."""
    if pkt.flags & RST and pkt.flags & (SYN | ACK) != SYN:
        flow.last_seen = inst.loop.now()
        inst._destroy_flow(flow, remove_stored=True)
        return
    _client_tunnel(inst, flow, pkt, policy)


def _server_tunnel(inst, flow, pkt, policy) -> None:
    """TUNNEL: translate to the client; the FIN pair's second one lingers."""
    state = flow.state
    flags = pkt.flags
    if flags & RST:
        # backend reset: propagate to the client, translated
        inst._send(inst._translate_to_client(flow, pkt))
        inst._destroy_flow(flow, remove_stored=True)
        return
    if flags & SYN and flags & ACK:
        # our handshake ACK was lost; repeat it
        _send_server_handshake_ack(inst, flow)
        return
    if state.tls_handshake_len and pkt.payload:
        pkt = _suppress_duplicate_handshake(inst, flow, pkt)
        if pkt is None:
            return
    if pkt.payload:
        # seq_diff(end of this segment, first response byte)
        rel = ((pkt.seq + len(pkt.payload) - state.server_isn - 1
                + SEQ_HALF) & SEQ_MASK) - SEQ_HALF
        if rel > flow.resp_high:
            flow.resp_high = rel
    closes = flags & FIN and not flow.fin_server and flow.fin_client
    if flags & FIN:
        flow.fin_server = True
    inst._send(inst._translate_to_client(flow, pkt))
    if closes:
        flow.phase = _CLOSING
        inst.loop.call_later(FLOW_LINGER, inst._on_timer, state.key, _finish_flow)


def _server_closing(inst, flow, pkt, policy) -> None:
    """CLOSING: as TUNNEL, except that a repeated SYN-ACK goes unanswered."""
    if pkt.flags & (RST | SYN | ACK) != SYN | ACK:
        _server_tunnel(inst, flow, pkt, policy)


def _finish_flow(inst, flow) -> None:
    """CLOSING's timer: the linger is over; the flow completed."""
    inst.completed_flows += 1
    inst.metrics.counter("flows_completed").inc()
    if OBS.enabled:
        inst._obs_end(flow, "flow", completed=True)
    inst._destroy_flow(flow, remove_stored=True)


def _maybe_switch_backend(inst, flow, request, start_offset: int,
                          policy: VipPolicy) -> bool:
    """Re-classify an HTTP/1.1 follow-up request; switch backends if it
    matches a different one (Section 5.2).  The connection-phase tricks,
    with offsets: the new backend connection's ISN is the client's stream
    position at the request boundary (so request bytes still flow
    unrewritten), and the server->client delta accumulates the response
    bytes already delivered by previous backends."""
    state = flow.state
    result = inst._select(policy, request)
    if result is None:
        return False  # keep the current backend rather than reset
    new_ep = policy.endpoint_of(result.backend)
    if new_ep == state.server:
        return False  # same backend: the connection is simply reused
    inst.metrics.counter("backend_switches").inc()
    flow.backend_name = result.backend
    # close the old backend connection and drop its TCPStore index
    inst.by_server.pop((str(state.server), state.snat_port), None)
    if not inst.stateless:  # no index record was ever written
        inst.tcpstore.remove_server_index(state)
    inst._send(Packet(
        src=state.snat_src, dst=state.server, flags=RST | ACK,
        seq=seq_add(state.client_isn, 1 + len(flow.req_assembled)),
        ack=seq_add(state.server_isn or 0, 1)))
    if state.snat_port is not None:
        inst.snat_ports.release(state.vip.ip, state.snat_port)
    # re-base the flow onto the new backend (named before the port is
    # allocated: a refusal tears down the re-based flow)
    state.request_offset = start_offset
    state.response_offset += flow.resp_high
    flow.resp_high = 0
    state.server = new_ep
    state.server_isn = None
    try:
        snat_port = inst.snat_ports.alloc(policy.vip)
    except SnatExhausted:
        # old backend connection is already torn down; refuse the
        # client rather than limp on with no port
        _refuse_exhausted(inst, flow)
        return True
    if OBS.enabled:
        OBS.flight(inst.name, "backend_switch", f"{state.key} -> {result.backend}")
    _open_backend(inst, flow, new_ep, snat_port, start_offset)
    return True


def _suppress_duplicate_handshake(inst, flow, pkt: Packet) -> Optional[Packet]:
    """Drop (or trim) backend response bytes that duplicate the TLS
    handshake flight this instance already served to the client,
    ACKing them locally so the backend's window keeps moving."""
    state = flow.state
    sup = state.tls_handshake_len
    rel = seq_diff(pkt.seq, seq_add(state.server_isn, 1))
    end = rel + pkt.payload_len
    if rel >= sup:
        return pkt  # past the handshake: nothing to do
    # ACK the suppressed span toward the backend
    inst._send(Packet(
        src=state.snat_src, dst=state.server, flags=ACK,
        seq=seq_add(state.client_isn, 1 + len(flow.req_assembled)),
        ack=seq_add(state.server_isn, 1 + min(end, sup))))
    if end <= sup:
        return None  # entirely within the duplicate flight
    keep = sup - rel
    return pkt.copy(seq=seq_add(pkt.seq, keep), payload=pkt.payload[keep:])


class _Phase(NamedTuple):
    """One row of the flow table.  ``client`` and ``server`` take the
    flow's packets; ``replies`` and ``timers`` name the store replies and
    timers the phase waits on and drop any other (``()`` drops all).
    ``flow_phase`` is what inspection reads: each local row (a store write
    in flight) reports the phase it waits in, and never reaches the
    serialized ``FlowState.phase``, which only the cells write."""

    flow_phase: FlowPhase
    client: Callable
    server: Callable
    replies: tuple
    timers: tuple


# A flow opens in SYN_STORING, or recovered in AWAIT_HEADER or TUNNEL.
# _TlsFlow.resend: the certificate flight may be out from AWAIT_HEADER on.
_SYN_STORING = _Phase(FlowPhase.AWAIT_HEADER, client=_client_unstored,
                      server=_drop, replies=(_syn_stored,), timers=())
_AWAIT_HEADER = _Phase(
    FlowPhase.AWAIT_HEADER, client=_client_header, server=_drop,
    replies=(_TlsFlow.hello_stored, _TlsFlow.ticket_checked),
    timers=(_connect_server, _TlsFlow.resend))
_SERVER_SYN_SENT = _Phase(
    FlowPhase.SERVER_SYN_SENT, client=_client_connecting,
    server=_server_syn_sent, replies=(),
    timers=(_server_syn_rto, _TlsFlow.resend))
_SERVER_STORING = _Phase(
    FlowPhase.SERVER_SYN_SENT, client=_client_connecting,
    server=_server_storing, replies=(_server_stored,),
    timers=(_server_syn_rto, _TlsFlow.resend))
_TUNNEL = _Phase(FlowPhase.TUNNEL, client=_client_tunnel,
                 server=_server_tunnel, replies=(), timers=(_TlsFlow.resend,))
_CLOSING = _Phase(FlowPhase.CLOSING, client=_client_closing,
                  server=_server_closing, replies=(),
                  timers=(_finish_flow, _TlsFlow.resend))


class YodaInstance:
    """One YODA LB VM."""

    def __init__(self, host: Host, loop: EventLoop, rng: SeededRng,
                 tcpstore: TcpStore, cost_model: Optional[YodaCostModel] = None,
                 l4lb=None,
                 qos_config: Optional[QosConfig] = None,
                 header_deadline: Optional[float] = None,
                 stateless: bool = False):
        self.host = host
        self.loop = loop
        self.rng = rng.fork(f"yoda/{host.name}")
        self.tcpstore = tcpstore
        # stateless fast path: skip every durable TCPStore write (storage
        # a/b, checkpoints, tickets, deletes).  Flows keep their in-memory
        # state and SNAT ports, but nothing survives this VM -- the mode's
        # deliberate tradeoff, demonstrated by the chaos ablation.
        self.stateless = stateless
        self.cost = cost_model or YodaCostModel()
        self.l4lb = l4lb
        self.cpu = CpuModel(loop, owner=host.name)
        self.metrics = MetricRegistry(host.name)
        self.backend_view: BackendView = AllHealthy()
        self.qos: Optional[InstanceQos] = (
            InstanceQos(qos_config, loop.now, self.metrics, host.name)
            if qos_config is not None else None)
        self.draining = False
        self._drain_started: float = 0.0
        # receiver-side stale-leader rejection (core.leader.FenceGate),
        # attached by YodaService when the control plane is replicated;
        # None (the single-controller default) admits every control call
        self.fence = None

        self.policies: Dict[str, VipPolicy] = {}
        self._tables: Dict[str, RuleTable] = {}
        self.flows: Dict[str, _LocalFlow] = {}
        self.by_server: Dict[Tuple[str, int], str] = {}  # (server_ep, snat_port) -> flow key
        # packets waiting on a TCPStore recovery lookup, by what it looks up:
        # a client flow key or a (server_ep, snat_port) pair
        self._recovering: Dict[object, List[Packet]] = {}
        self.snat_ports = SnatPorts(l4lb, host.ip, self.metrics,
                                    self._reclaim_closing_flows)
        self.vip_bytes: Dict[str, int] = {}
        self.completed_flows = 0
        # per-packet counters, looked up once (as Host caches its own)
        self._c_packets_in = self.metrics.counter("packets_in")
        self._c_packets_out = self.metrics.counter("packets_out")

        host.set_handler(self._on_packet_raw)
        PeriodicTask(loop, 30.0, self._collect_idle_flows).start()

        # slow-loris guard: flows must produce a complete header within
        # this budget of their SYN or be reset (None = off, the default --
        # pinned traces construct no timer and see no behaviour change)
        self.header_deadline = header_deadline
        self.slow_clients: List[SlowClientTimeout] = []
        if header_deadline is not None:
            PeriodicTask(loop, max(header_deadline / 2.0, 0.05),
                         self._enforce_header_deadline).start()

    # ------------------------------------------------------------- lifecycle --
    @property
    def name(self) -> str:
        return self.host.name

    @property
    def ip(self) -> str:
        return self.host.ip

    def fail(self) -> None:
        """Crash the VM: the network drops its traffic and, crucially, all
        local flow state is gone (only TCPStore survives).  Its SNAT ports
        stay held (``SnatPorts``: a crash releases nothing)."""
        self.host.fail()
        for flow in self.flows.values():
            self._stop_flow(flow)
        self._forget_flows()

    def _stop_flow(self, flow: _LocalFlow) -> None:
        """Cancel a departing flow's timers and return its limiter slot."""
        if flow.syn_timer is not None:
            flow.syn_timer.cancel()
        if flow.tls and flow.tls.cert_timer is not None:
            flow.tls.cert_timer.cancel()
        self._release_qos_slot(flow)

    def _forget_flows(self) -> None:
        self.flows.clear()
        self.by_server.clear()
        self._recovering.clear()

    def recover(self) -> None:
        self.host.recover()

    def _enforce_header_deadline(self) -> None:
        """Slow-loris guard: reset any flow still without a complete
        request header ``header_deadline`` seconds after its SYN.  The
        budget is total time in the header phase, not idle time -- a
        classic slow-loris client trickles a byte at a time and would
        never trip an idle check."""
        if self.host.failed:
            return
        now = self.loop.now()
        for flow in list(self.flows.values()):
            if flow.phase.flow_phase is not FlowPhase.AWAIT_HEADER:
                continue
            if now - flow.t_syn <= self.header_deadline:
                continue
            self.slow_clients.append(
                SlowClientTimeout(str(flow.state.client), self.header_deadline))
            self._reset_client(flow, "slow_client_timeouts", "slow_client_timeout")

    def _admit(self, token, kind: str) -> None:
        if self.fence is not None:
            self.fence.admit(token, kind, self.loop.now())

    # -------------------------------------------------------------- draining --
    def start_drain(self, token=None) -> None:
        """Stop admitting new connections; existing flows keep running.
        The controller pairs this with pulling the instance from the mux
        hash rings, so refused SYNs are retransmitted onto a live
        instance (make-before-break scale-in, DESIGN.md section 7)."""
        self._admit(token, "start_drain")
        self.draining = True
        self._drain_started = self.loop.now()

    def release_flows(self, token=None) -> None:
        """Forget all local flow state WITHOUT deleting the TCPStore
        records: the deadline-forced half of a drain.  Surviving flows
        recover on whichever instance the mux re-hashes their next packet
        to -- the paper's failover path, exercised deliberately."""
        self._admit(token, "release_flows")
        for flow in list(self.flows.values()):
            if flow.stream is not None:
                flow.stream.hand_off(self, flow)
            self._stop_flow(flow)
            self._obs_close(flow, handed_off=True)
        self._forget_flows()
        self.snat_ports.release_all()

    # ---------------------------------------------------------------- policy --
    def install_policy(self, policy: VipPolicy, token=None) -> None:
        """Install/refresh a VIP's rules.  Only new connections see the new
        version (Section 5.2): existing flows already carry their backend.
        """
        self._admit(token, "install_policy")
        self.policies[policy.vip] = policy
        self._tables[policy.vip] = RuleTable(policy.rules)
        self.vip_bytes.setdefault(policy.vip, 0)

    def remove_policy(self, vip: str, token=None) -> None:
        self._admit(token, "remove_policy")
        self.policies.pop(vip, None)
        self._tables.pop(vip, None)

    def rule_count(self) -> int:
        return sum(p.rule_count for p in self.policies.values())

    def read_and_reset_traffic(self) -> Dict[str, int]:
        """Controller hook: per-VIP bytes since the last read."""
        out = dict(self.vip_bytes)
        for vip in self.vip_bytes:
            self.vip_bytes[vip] = 0
        return out

    def durable_records(self) -> List[Tuple[str, bytes, object]]:
        """(key, payload, version) for every TCPStore record this
        instance's live flows rely on -- the anti-entropy sweeper's work
        list.  Left out: closing flows (their records are being deleted),
        writes still in flight (they already target the current replica
        set), versions a delete dropped (a lingering finished flow owns
        nothing), and flows quiet past DURABLE_STALE_HORIZON (a copy
        stranded here by a misrouting may be closed at its real owner)."""
        out: List[Tuple[str, bytes, object]] = []
        if self.stateless:
            return out  # nothing durable exists for this instance's flows
        now = self.loop.now()
        for flow in self.flows.values():
            phase = flow.phase
            if phase is _CLOSING or now - flow.last_seen > DURABLE_STALE_HORIZON:
                continue
            state = flow.state
            payload: Optional[bytes] = None
            if phase is not _SYN_STORING:
                key = state.storage_key()
                version = self.tcpstore.version_of(key)
                if version is not None:
                    payload = state.to_bytes()
                    out.append((key, payload, version))
            if state.established and phase is not _SERVER_STORING:
                skey = state.server_storage_key()
                if skey is not None:
                    version = self.tcpstore.version_of(skey)
                    if version is not None:
                        payload = payload if payload is not None else state.to_bytes()
                        out.append((skey, payload, version))
        return out

    # ------------------------------------------------------------- packet I/O --
    def _on_packet_raw(self, pkt: Packet) -> None:
        meta = pkt.meta
        if meta:  # client and backend segments carry none
            if meta.get("kv_resp") is not None:
                # Memcached client traffic is consumed by the embedded library
                self.tcpstore.kv.handle_response(pkt)
                return
            if meta.get("kv") is not None:
                return  # not a store server; ignore stray
        self._c_packets_in.value += 1
        # One event per packet: the CPU queue is evaluated now, at arrival,
        # and the packet is dispatched packet_latency after its work
        # completes.  The fire time is the float two chained call_later()s
        # would produce -- (now + (finish - now)) + packet_latency, in that
        # association -- so the packet schedule is unchanged to the bit.
        loop = self.loop
        now = loop.now()
        finish = self.cpu.execute(self.cost.packet_cost(pkt), phase="packet")
        loop.call_at((now + (finish - now)) + self.cost.packet_latency,
                     self._dispatch, pkt)

    def _dispatch(self, pkt: Packet) -> None:
        """Hand a packet to its flow's cell, a client packet found by its
        4-tuple, a server packet by (backend, SNAT port).  A SYN for no flow
        opens one; any other packet for no flow waits on a TCPStore lookup
        (even a pure ACK: a client mid-download sends nothing else)."""
        if self.host.failed:
            return
        policy = self.policies.get(pkt.dst.ip)
        if policy is None:
            self.metrics.counter("no_policy_drop").inc()
            return
        if pkt.dst.port == policy.port:
            key = flow_key(pkt.src, pkt.dst)
            flow = self.flows.get(key)
            self.vip_bytes[policy.vip] = (self.vip_bytes.get(policy.vip, 0)
                                          + IP_TCP_HEADER_BYTES + len(pkt.payload))
            if flow is not None:
                flow.phase.client(self, flow, pkt, policy)
            elif pkt.flags & (SYN | ACK) == SYN:
                self._open_flow(key, pkt, policy)
            else:
                self._recover(key, pkt, "recovery_lookups_client",
                              self.tcpstore.get_by_client, pkt.src, pkt.dst)
            return
        skey = (pkt.src.text, pkt.dst.port)
        key = self.by_server.get(skey)
        flow = self.flows.get(key) if key is not None else None
        if flow is not None:
            flow.last_seen = self.loop.now()
            flow.phase.server(self, flow, pkt, policy)
        else:
            self._recover(skey, pkt, "recovery_lookups_server",
                          self.tcpstore.get_by_server,
                          pkt.dst.ip, pkt.dst.port, pkt.src)

    def _on_reply(self, key: str, handler, *args) -> None:
        """A store reply: ``handler`` runs if its flow's row waits on it."""
        flow = self.flows.get(key)
        if (flow is not None and not self.host.failed
                and handler in flow.phase.replies):
            handler(self, flow, *args)

    def _on_timer(self, key: str, handler, *args) -> None:
        """A timer: ``handler`` runs if its flow's row keeps that timer."""
        flow = self.flows.get(key)
        if (flow is not None and not self.host.failed
                and handler in flow.phase.timers):
            handler(self, flow, *args)

    def _send(self, pkt: Packet) -> None:
        self._c_packets_out.value += 1
        self.host.send(pkt)

    def _send_syn_ack(self, flow: _LocalFlow) -> None:
        state = flow.state
        self._send(Packet(src=state.vip, dst=state.client, flags=SYN | ACK,
                          seq=state.yoda_isn, ack=seq_add(state.client_isn, 1)))

    def _open_flow(self, key: str, pkt: Packet, policy: VipPolicy) -> None:
        """A SYN for no flow: admit it, record the flow and start storage-a,
        which MUST complete before the SYN-ACK leaves (Figure 3)."""
        now = self.loop.now()
        if self.draining and now - self._drain_started > DRAIN_SYN_GRACE:
            # No new connections during make-before-break scale-in -- but
            # only once the drain push has had time to pull us from the
            # mux rings (DRAIN_SYN_GRACE).  After that, drop the SYN
            # silently: the client's retransmit re-hashes through the mux
            # ring, which no longer includes this instance.
            self.metrics.counter("syns_refused_draining").inc()
            if OBS.enabled:
                OBS.flight(self.name, "drain_refuse", str(pkt.src))
            return
        if self.qos is not None:
            decision = self.qos.admit_syn(pkt.dst.ip, pkt.src.ip)
            if not decision.admitted:
                self._shed_syn(pkt, decision)
                return
        state = FlowState(client=pkt.src, vip=pkt.dst, client_isn=pkt.seq, created_at=now)
        flow = _LocalFlow(state, now)
        flow.qos_slot = self.qos is not None  # admit_syn took a limiter slot
        if policy.certificate is not None:
            flow.enable_tls()
        self.flows[key] = flow
        self.metrics.counter("flows_opened").inc()
        if OBS.enabled:
            self._obs_flow_open(flow, pkt.meta.get("obs_ctx"))
        if self.stateless:
            # stateless fast path: SYN-ACK immediately, no storage-a.
            # If this VM dies the flow is gone -- that is the bargain.
            self.metrics.counter("stateless_flows").inc()
        _store(self, flow, "storage_a", self.tcpstore.store_client_syn, _syn_stored)

    def _shed_syn(self, pkt: Packet, decision) -> None:
        """Stateless SYN-stage rejection (load shedding).  The RST carries
        the deterministic yoda ISN, so it is computed from the packet
        alone: no flow record, no TCPStore write, no SNAT port -- what lets
        an overloaded instance keep shedding at line rate."""
        self.metrics.counter("syns_shed").inc()
        if OBS.enabled:
            OBS.flight(self.name, "shed",
                       f"{pkt.src} reason={decision.reason} "
                       f"tier={decision.tier}")
            ctx = pkt.meta.get("obs_ctx")
            if ctx is not None:
                OBS.tracer.event("qos.shed", self.name, ctx=ctx,
                                 attrs={"reason": decision.reason,
                                        "tier": decision.tier})
        self._send(Packet(src=pkt.dst, dst=pkt.src, flags=RST | ACK,
                          seq=yoda_isn(pkt.src, pkt.dst), ack=seq_add(pkt.seq, 1)))

    def _release_qos_slot(self, flow: _LocalFlow) -> None:
        if flow.qos_slot:
            flow.qos_slot = False
            self.qos.release_slot()

    def _select(self, policy: VipPolicy,
                request: HttpRequest) -> Optional[SelectionResult]:
        """The VIP's rule scan, against controller health intersected with
        this instance's circuit breakers when qos is armed."""
        view = self.backend_view
        if self.qos is not None:
            view = self.qos.view(view)
        return self._tables[policy.vip].select(request, self.rng, view)

    # ---------------------------------------------------------- observability --
    # Purely passive span bookkeeping: stage spans start/end at exactly the
    # timestamps the legacy stage histograms observe, so Fig. 9 derived
    # from spans matches the histogram-based computation bit-for-bit.
    def _obs_flow_open(self, flow: _LocalFlow, ctx, recovered: bool = False) -> None:
        flow.obs_ctx = ctx
        span = OBS.tracer.start("yoda.flow", self.name, ctx=ctx,
                                attrs={"recovered": recovered} if recovered
                                else None)
        flow.obs_spans = {"flow": span}

    def _obs_start(self, flow: _LocalFlow, name: str):
        if flow.obs_spans is None:
            return None
        root = flow.obs_spans.get("flow")
        ctx = OBS.tracer.ctx_of(root) if root is not None else flow.obs_ctx
        span = OBS.tracer.start(name, self.name, ctx=ctx)
        flow.obs_spans[name] = span
        return span

    def _obs_end(self, flow: _LocalFlow, name: str, end=None, **attrs) -> None:
        if flow.obs_spans is None:
            return
        span = flow.obs_spans.pop(name, None)
        if span is not None:
            OBS.tracer.end(span, end=end, **attrs)

    def _obs_close(self, flow: _LocalFlow, **attrs) -> None:
        """End every span still open on a flow that leaves this instance."""
        if OBS.enabled and flow.obs_spans is not None:
            for name in ("storage_a", "storage_b", "server_connect", "rule_scan"):
                self._obs_end(flow, name, ok=False)
            self._obs_end(flow, "flow", completed=False, **attrs)

    # ========================================================== translation ==
    def _delta(self, state: FlowState) -> int:
        """Server->client sequence offset: C - S (plus HTTP/1.1 response
        offset when the backend has been switched mid-connection).

        The definition of the translation: the two functions below apply
        ``seq_add(x, +-_delta(state))`` with the offset's three terms folded
        under one mask, which is equal mod 2**32 for every input."""
        return seq_diff(seq_add(state.yoda_isn, state.response_offset), state.server_isn)

    def _translate_to_client(self, flow: _LocalFlow, pkt: Packet) -> Packet:
        state = flow.state
        meta = pkt.meta
        # the server ACKs bytes in the client's own sequence space (ISN
        # reuse), so the ack field passes through untouched
        return Packet(state.vip, state.client, pkt.flags,
                      (pkt.seq + state.yoda_isn + state.response_offset
                       - state.server_isn) & SEQ_MASK,
                      pkt.ack, pkt.payload, dict(meta) if meta else {})

    def _translate_to_server(self, flow: _LocalFlow, pkt: Packet) -> Packet:
        state = flow.state
        meta = pkt.meta
        return Packet(state.snat_src, state.server, pkt.flags, pkt.seq,
                      (pkt.ack - state.yoda_isn - state.response_offset
                       + state.server_isn) & SEQ_MASK
                      if pkt.flags & ACK else 0,
                      pkt.payload, dict(meta) if meta else {})

    # ============================================================== recovery ==
    def _recover(self, rkey, pkt: Packet, counter: str, lookup, *args) -> None:
        """Queue ``pkt`` behind the TCPStore lookup of ``rkey`` (a client
        flow key or a (server_ep, snat_port) pair), starting the lookup --
        ``lookup(*args, on_done)`` -- for the first packet waiting on it."""
        queued = self._recovering.get(rkey)
        if queued is not None:
            queued.append(pkt)
            return
        self._recovering[rkey] = [pkt]
        self.metrics.counter(counter).inc()
        lookup(*args, lambda st: self._recovery_done(rkey, st))

    def _recovery_done(self, rkey, state: Optional[FlowState]) -> None:
        queued = self._recovering.pop(rkey, [])
        if self.host.failed:
            return
        from_server = isinstance(rkey, tuple)
        if state is None:
            self.metrics.counter("recovery_miss").inc()
            if from_server:
                # orphan half-open server connection: clean it up so the
                # backend does not retransmit forever
                for pkt in queued:
                    if not pkt.rst:
                        self._send(Packet(
                            src=pkt.dst, dst=pkt.src, flags=RST | ACK,
                            seq=pkt.ack if pkt.has_ack else 0,
                            ack=seq_add(pkt.seq, max(pkt.seq_span, 1))))
            return
        flow = self._install_recovered(state.key, state)
        policy = self.policies.get(state.vip.ip)
        if policy is None:
            return
        for pkt in queued:
            if from_server:
                self._dispatch(pkt)  # by (backend, SNAT port) again
            else:
                flow.phase.client(self, flow, pkt, policy)

    def _install_recovered(self, key: str, state: FlowState) -> _LocalFlow:
        existing = self.flows.get(key)
        if existing is not None:
            return existing
        flow = _LocalFlow(state, self.loop.now())
        flow.requests_seen = None  # HTTP/1.1 switching needs parser context
        if OBS.enabled:
            self._obs_flow_open(flow, None, recovered=True)
            OBS.flight(self.name, "flow_recovered", f"{key} phase={state.phase}")
        policy = self.policies.get(state.vip.ip)
        if policy is not None and policy.certificate is not None:
            flow.enable_tls()
            flow.tls.recover(self, flow, policy)
        if state.established:
            if state.replay_header and not flow.tls:
                flow.stream = _StreamFlow()
            if not (flow.stream is not None and policy is not None
                    and flow.stream.resume(self, flow, policy)):
                flow.phase = _TUNNEL
                self.by_server[(str(state.server), state.snat_port)] = key
        else:
            flow.phase = _AWAIT_HEADER
        self.flows[key] = flow
        self.metrics.counter("flows_recovered").inc()
        return flow

    # ================================================================ cleanup ==
    def _reset_client(self, flow: _LocalFlow, counter: Optional[str] = None,
                      note: Optional[str] = None, acked: int = 0) -> None:
        """End a flow no backend has answered on: all the client has from
        it is this instance's SYN-ACK (and, on a TLS VIP, the certificate
        flight), and an ACK of ``acked`` of its bytes.  ``counter`` and the
        flight-recorder ``note`` say why (a malformed request costs its
        sender the connection, and the run nothing)."""
        if counter is not None:
            self.metrics.counter(counter).inc()
        if note is not None and OBS.enabled:
            OBS.flight(self.name, note, flow.state.key)
        state = flow.state
        self._send(Packet(src=state.vip, dst=state.client, flags=RST | ACK,
                          seq=state.yoda_isn,
                          ack=seq_add(state.client_isn, 1 + acked)))
        self._destroy_flow(flow, remove_stored=True)

    def _reclaim_closing_flows(self) -> bool:
        """Destroy the flows already closing, for the SNAT ports they hold
        (``SnatPorts.alloc`` asks under pressure); False if there were none."""
        closing = [f for f in self.flows.values() if f.phase is _CLOSING]
        for flow in closing:
            self._destroy_flow(flow, remove_stored=True)
        return bool(closing)

    def _destroy_flow(self, flow: _LocalFlow, remove_stored: bool) -> None:
        state = flow.state
        self._obs_close(flow)
        self.flows.pop(state.key, None)
        self._stop_flow(flow)
        if state.server is not None and state.snat_port is not None:
            self.by_server.pop((str(state.server), state.snat_port), None)
            self.snat_ports.release(state.vip.ip, state.snat_port)
        if remove_stored and not self.host.failed and not self.stateless:
            self.tcpstore.remove(state)

    def _collect_idle_flows(self) -> None:
        now = self.loop.now()
        stale = [f for f in self.flows.values() if now - f.last_seen > FLOW_IDLE_TIMEOUT]
        for flow in stale:
            self.metrics.counter("flows_idle_reaped").inc()
            self._destroy_flow(flow, remove_stored=True)
