"""HAProxy-style proxy load balancer (paper Sections 2.2-2.3).

Each instance terminates the client connection with a full TCP stack,
parses the request, selects a backend with the same linear rule scan YODA
uses (YODA reuses HAProxy's classification algorithm), opens a backend
connection from its *own* IP, and splices bytes between the two sockets
(in-kernel TCP splicing -- hence lower per-packet cost than YODA's
user-space driver, per Section 7.1).

The crucial difference from YODA: both TCP control blocks and the
client->backend binding live only in this process.  Kill the VM and every
flow it carried is unrecoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.policy import VipPolicy
from repro.core.selector import AllHealthy, BackendView, RuleTable, ScanCostModel
from repro.errors import HttpError
from repro.http.message import HttpRequest
from repro.http.parser import HttpParser
from repro.l4lb.service import L4LoadBalancer
from repro.net.host import Host
from repro.obs import OBS
from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry
from repro.sim.process import PeriodicTask
from repro.sim.random import SeededRng
from repro.tcp.config import TcpConfig
from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack


@dataclass
class HAProxyCostModel:
    """Calibrated to Section 7.1: ~46% CPU at 12K small req/s (roughly half
    of YODA's user-space cost) and slightly lower per-request latency."""

    request_cpu: float = 3.8e-5
    byte_cpu: float = 0.7e-9
    splice_latency: float = 2.0e-4  # kernel splicing per forwarded chunk
    connect_latency: float = 1.0e-4


class HAProxyInstance:
    """One HAProxy VM behind the L4 LB (it answers for the VIP address the
    L4 LB delivers, client-side; backend connections use its own IP)."""

    def __init__(
        self,
        host: Host,
        loop: EventLoop,
        rng: SeededRng,
        cost_model: Optional[HAProxyCostModel] = None,
        scan_cost_model: Optional[ScanCostModel] = None,
        tcp_config: Optional[TcpConfig] = None,
    ):
        self.host = host
        self.loop = loop
        self.rng = rng.fork(f"haproxy/{host.name}")
        self.cost = cost_model or HAProxyCostModel()
        self.scan_cost_model = scan_cost_model or ScanCostModel()
        self.cpu = CpuModel(loop, owner=host.name)
        self.metrics = MetricRegistry(host.name)
        self.backend_view: BackendView = AllHealthy()
        self.stack = TcpStack(host, loop, tcp_config or TcpConfig())
        self.policies: Dict[str, VipPolicy] = {}
        self._tables: Dict[str, RuleTable] = {}
        self._listening: set = set()
        self.active_splices = 0
        self.requests_handled = 0

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

    def install_policy(self, policy: VipPolicy) -> None:
        self.policies[policy.vip] = policy
        self._tables[policy.vip] = RuleTable(policy.rules, self.scan_cost_model)
        if policy.port not in self._listening:
            self._listening.add(policy.port)
            self.stack.listen(policy.port, self._accept)

    def rule_count(self) -> int:
        return sum(p.rule_count for p in self.policies.values())

    def _accept(self, conn: TcpConnection) -> ConnectionHandler:
        return _FrontendHandler(self, conn)

    def table_for(self, vip: str) -> Optional[RuleTable]:
        return self._tables.get(vip)


class _FrontendHandler(ConnectionHandler):
    """Client-side connection: parse, select, then splice."""

    def __init__(self, proxy: HAProxyInstance, conn: TcpConnection):
        self.proxy = proxy
        self.front = conn
        self.back: Optional[TcpConnection] = None
        self.parser = HttpParser("request")
        self.pending_front_bytes = bytearray()  # bytes to replay to backend
        self.back_established = False
        self.front_closed = False
        self._inflight = {"front": 0, "back": 0}  # spliced chunks not yet delivered
        self._close_when_drained = {"front": False, "back": False}
        # trace context adopted from the client's SYN, when tracing is on
        self._obs_ctx = conn.obs_ctx if OBS.enabled else None
        self._span_connect = None

    # -- client side ----------------------------------------------------------
    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        self.pending_front_bytes.extend(data)
        if self.back is None:
            try:
                parsed = self.parser.feed(data)
            except HttpError:
                conn.abort("bad-request")
                return
            if parsed or self.parser.header_complete():
                request = parsed[0].message if parsed else None
                self._select_backend(request)
        elif self.back_established:
            self._splice(self.back, "back", bytes(data))
            self.pending_front_bytes.clear()

    def _select_backend(self, request: Optional[HttpRequest]) -> None:
        vip = self.front.local.ip
        policy = self.proxy.policies.get(vip)
        table = self.proxy.table_for(vip)
        if policy is None or table is None:
            self.front.abort("no-policy")
            return
        if request is None:
            # header complete but unparsed (streaming body): rebuild
            parser = HttpParser("request")
            idx = bytes(self.pending_front_bytes).find(b"\r\n\r\n")
            msgs = parser.feed(bytes(self.pending_front_bytes[:idx]) + b"\r\n\r\n")
            if not msgs:
                return
            request = msgs[0].message
        result = table.select(request, self.proxy.rng, self.proxy.backend_view)
        if result is None:
            self.front.abort("no-backend")
            return
        self.proxy.cpu.execute(self.proxy.cost.request_cpu, phase="request")
        self.proxy.requests_handled += 1
        self.proxy.metrics.counter("requests").inc()
        self.proxy.metrics.histogram("scan_latency").observe(result.scan_latency)
        if OBS.enabled:
            span = OBS.tracer.start("rule_scan", self.proxy.name,
                                    ctx=self._obs_ctx)
            OBS.tracer.end(span, end=span.start + result.scan_latency,
                           ok=True, backend=result.backend)
        backend_ep = policy.endpoint_of(result.backend)
        # rule-scan latency elapses before the backend connection opens
        self.proxy.loop.call_later(result.scan_latency, self._connect_backend,
                                   backend_ep)

    def _connect_backend(self, backend_ep) -> None:
        if self.front.state.closed:
            return
        self._connect_started = self.proxy.loop.now()
        if OBS.enabled:
            self._span_connect = OBS.tracer.start(
                "server_connect", self.proxy.name, ctx=self._obs_ctx,
                start=self._connect_started)
        self.back = self.proxy.stack.connect(backend_ep, _BackendHandler(self),
                                             obs_ctx=self._obs_ctx)

    def backend_connected(self) -> None:
        self.back_established = True
        now = self.proxy.loop.now()
        self.proxy.metrics.histogram("server_connect_latency").observe(
            now - self._connect_started
        )
        if OBS.enabled and self._span_connect is not None:
            OBS.tracer.end(self._span_connect, end=now, ok=True)
            self._span_connect = None
        if self.pending_front_bytes:
            self._splice(self.back, "back", bytes(self.pending_front_bytes))
            self.pending_front_bytes.clear()
        if self.front_closed:
            self._close_side("back")

    def backend_data(self, data: bytes) -> None:
        if self.front.state.can_send:
            self._splice(self.front, "front", data)

    def backend_closed(self) -> None:
        self._close_side("front")

    def _splice(self, conn: TcpConnection, side: str, data: bytes) -> None:
        cost = self.proxy.cost.byte_cpu * len(data)
        self.proxy.cpu.execute(cost, phase="splice")
        self._inflight[side] += 1
        self.proxy.loop.call_later(
            self.proxy.cost.splice_latency, self._deliver, conn, side, data
        )

    def _deliver(self, conn: TcpConnection, side: str, data: bytes) -> None:
        self._inflight[side] -= 1
        if conn.state.can_send:
            conn.send(data)
        if self._close_when_drained[side] and self._inflight[side] == 0:
            if conn.state.can_send:
                conn.close()

    def _close_side(self, side: str) -> None:
        """Close a side once all bytes spliced toward it have been sent."""
        conn = self.front if side == "front" else self.back
        if conn is None:
            return
        if self._inflight[side] > 0:
            self._close_when_drained[side] = True
        elif conn.state.can_send:
            conn.close()

    def on_remote_close(self, conn: TcpConnection) -> None:
        self.front_closed = True
        if self.back is not None and self.back_established:
            self._close_side("back")

    def on_error(self, conn: TcpConnection, reason: str) -> None:
        if self.back is not None and not self.back.state.closed:
            self.back.abort("front-error")

    def on_closed(self, conn: TcpConnection) -> None:
        pass


class _BackendHandler(ConnectionHandler):
    def __init__(self, frontend: _FrontendHandler):
        self.frontend = frontend

    def on_connected(self, conn: TcpConnection) -> None:
        self.frontend.backend_connected()

    def on_data(self, conn: TcpConnection, data: bytes) -> None:
        self.frontend.backend_data(data)

    def on_remote_close(self, conn: TcpConnection) -> None:
        conn.close()
        self.frontend.backend_closed()

    def on_error(self, conn: TcpConnection, reason: str) -> None:
        front = self.frontend.front
        if not front.state.closed:
            front.abort("backend-error")


class HAProxyDeployment:
    """HAProxy instances behind the L4 LB with a conventional health check.

    The health checker removes a dead instance from the VIP mapping so
    *new* flows avoid it -- but, unlike YODA's controller, it cannot flush
    established flows to other instances (they would have no state there),
    so those flows stay pinned to the dead VM and break.
    """

    def __init__(
        self,
        loop: EventLoop,
        l4lb: L4LoadBalancer,
        instances: List[HAProxyInstance],
        check_interval: float = 0.6,
    ):
        self.loop = loop
        self.l4lb = l4lb
        self.instances = {i.name: i for i in instances}
        self._alive = {i.name: True for i in instances}
        self.vips: List[str] = []
        self._checker = PeriodicTask(loop, check_interval, self._check)
        self._checker.start()

    def add_vip(self, policy: VipPolicy) -> None:
        for instance in self.instances.values():
            instance.install_policy(policy)
        self.l4lb.register_vip(policy.vip)
        self.vips.append(policy.vip)
        self._push_mappings()

    def _live_ips(self) -> List[str]:
        return [i.ip for i in self.instances.values() if self._alive[i.name]]

    def _push_mappings(self) -> None:
        ips = self._live_ips()
        for vip in self.vips:
            # flush_removed=False: established flows stay pinned to the
            # dead instance -- the defining HAProxy failure behaviour
            self.l4lb.update_mapping(vip, ips, flush_removed=False)

    def _check(self) -> None:
        changed = False
        for name, instance in self.instances.items():
            alive = not instance.host.failed
            if alive != self._alive[name]:
                self._alive[name] = alive
                changed = True
        if changed:
            self._push_mappings()
