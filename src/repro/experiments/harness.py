"""Shared experiment scaffolding.

:class:`Testbed` builds the paper's Section 7 testbed shape in one call:
an L4 LB, L7 LB instances (YODA or HAProxy), TCPStore VMs, backend web
servers with the university-site corpus, and client hosts on a simulated
campus network 30 ms (one-way) from the datacenter -- giving the same
~130 ms no-LB baseline the paper reports.

The defaults are scaled down from the 60-VM testbed so each experiment
runs in seconds of wall-clock; every experiment documents its scaling in
EXPERIMENTS.md and keeps the paper's *ratios* (instances : stores :
backends, request rates relative to instance capacity).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis.report import render_table
from repro.baselines.haproxy import HAProxyDeployment, HAProxyInstance
from repro.core.policy import VipPolicy, weighted_split
from repro.core.service import PRIMARY_SITE, YodaService, YodaServiceConfig
from repro.errors import ConfigError
from repro.http.server import BackendHttpServer
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency, JitterLatency
from repro.net.network import Network
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.sim.tracing import PacketTrace
from repro.tcp.endpoint import TcpStack
from repro.workload.clients import ClosedLoopProcess, OpenLoopGenerator
from repro.workload.streaming import StreamingFleet
from repro.workload.objects import ObjectCorpus, build_flat_corpus, build_university_site
from repro.workload.website import Website

DEFAULT_VIP = "100.0.0.1"
CLIENT_SITE = "internet"
NUM_CLIENT_HOSTS = 2
# the standby region sits this WAN hop (one way) from the primary
WAN_ONE_WAY_LATENCY = 0.020
WAN_JITTER = 0.002


@dataclass
class ExperimentResult:
    """Uniform experiment output: paper-comparable rows + a summary."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def render(self, columns: Optional[List[str]] = None) -> str:
        parts = [render_table(self.rows, columns, title=self.name)]
        if self.summary:
            parts.append("summary: " + ", ".join(
                f"{k}={v}" for k, v in self.summary.items()
            ))
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


@dataclass
class TestbedConfig:
    """The testbed's shape: workload sizes, client path, corpus, and --
    for ``lb="yoda"`` -- a handle to the tier's own config.  Every
    yoda-tier option (planes, costs, ablation switches) is declared on
    :class:`YodaServiceConfig` only; ``Testbed`` stamps the tier sizes onto
    a copy of the handle."""

    __test__ = False  # not a pytest class, despite the name

    seed: int = 2016
    lb: str = "yoda"  # "yoda" | "haproxy" | "none"
    num_lb_instances: int = 6
    num_store_servers: int = 3
    num_backends: int = 6
    client_one_way_latency: float = 0.030
    client_jitter: float = 0.004
    corpus: str = "university"  # "university" | "flat"
    flat_object_bytes: int = 10_000
    flat_object_count: int = 50
    num_pages: int = 60
    trace_packets: bool = False
    tls_certificate: object = None  # repro.http.tls.Certificate enables SSL
    tls_session_tickets: bool = False  # resumption tickets in the flow store
    # the yoda tier's planes and knobs; None = a default tier when
    # lb == "yoda", and the only legal value otherwise
    yoda: Optional[YodaServiceConfig] = None

    def validate(self) -> None:
        """Refuse, before anything is built, what cannot work or would be
        silently ignored."""
        if self.lb not in ("yoda", "haproxy", "none"):
            raise ConfigError(f"unknown lb kind {self.lb!r} "
                              f"(one of 'yoda', 'haproxy', 'none')")
        if self.corpus not in ("university", "flat"):
            raise ConfigError(f"unknown corpus {self.corpus!r} "
                              f"(one of 'university', 'flat')")
        for name in ("num_lb_instances", "num_store_servers", "num_backends",
                     "flat_object_count", "num_pages"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.yoda is None:
            return
        if self.lb != "yoda":
            ignored = ", ".join(self.yoda.non_default()) or "(all defaults)"
            raise ConfigError(f"lb={self.lb!r} has no yoda tier, so "
                              f"yoda-tier options would be ignored: {ignored}")
        # the testbed sizes the tier; a size the handle carries away from
        # its default would be silently overwritten unless it agrees
        carried = self.yoda.non_default()
        for mine, theirs in (("num_lb_instances", "num_instances"),
                             ("num_store_servers", "num_store_servers")):
            if theirs in carried and getattr(self.yoda, theirs) != getattr(self, mine):
                raise ConfigError(
                    f"yoda.{theirs}={getattr(self.yoda, theirs)} conflicts with "
                    f"{mine}={getattr(self, mine)}: the testbed sizes the tier")
        self.yoda.validate()


class Testbed:
    """A wired deployment ready for client workloads."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: Optional[TestbedConfig] = None):
        self.config = config or TestbedConfig()
        cfg = self.config
        cfg.validate()
        region = cfg.yoda.region if cfg.yoda is not None else None
        self.vip = DEFAULT_VIP
        self.loop = EventLoop()
        self.rng = SeededRng(cfg.seed)
        self.network = Network(self.loop, self.rng)
        if OBS.enabled:
            OBS.attach_clock(self.loop.now)
        client_path = (
            JitterLatency(cfg.client_one_way_latency, cfg.client_jitter)
            if cfg.client_jitter > 0
            else FixedLatency(cfg.client_one_way_latency))
        self.network.set_symmetric_latency(
            CLIENT_SITE, PRIMARY_SITE, client_path)
        if region is not None:
            # the standby region sits a WAN hop from the primary and the
            # same campus distance from the clients
            self.network.set_symmetric_latency(
                PRIMARY_SITE, region.standby_site,
                JitterLatency(WAN_ONE_WAY_LATENCY, WAN_JITTER))
            self.network.set_symmetric_latency(
                CLIENT_SITE, region.standby_site, client_path)
        self.trace: Optional[PacketTrace] = None
        if cfg.trace_packets:
            self.trace = self.network.add_trace(PacketTrace())

        # corpus + backends (validate() has refused any other corpus name)
        if cfg.corpus == "university":
            self.corpus: ObjectCorpus = build_university_site(
                self.rng, num_pages=cfg.num_pages
            )
        else:
            self.corpus = build_flat_corpus(
                self.rng, cfg.flat_object_count, size=cfg.flat_object_bytes
            )
        self.website = Website(self.corpus, self.rng)
        self.backends: Dict[str, BackendHttpServer] = {}
        for i in range(cfg.num_backends):
            self.backends[f"srv-{i}"] = self._backend(
                f"srv-{i}", f"10.3.0.{i + 1}", PRIMARY_SITE)

        self.standby_backends: Dict[str, BackendHttpServer] = {}
        if region is not None:
            for i in range(cfg.num_backends):
                self.standby_backends[f"srv-s-{i}"] = self._backend(
                    f"srv-s-{i}", f"10.3.1.{i + 1}", region.standby_site)

        # primary-backup rule pattern: the standby site's backends sit in a
        # lower-priority rule, selected only once every primary backend is
        # marked unhealthy (i.e. after a region kill)
        rules = [weighted_split("even-split", "*",
                                {n: 1.0 for n in self.backends})]
        if self.standby_backends:
            rules.append(weighted_split("standby-split", "*",
                                        {n: 1.0 for n in self.standby_backends}))
        self.policy = VipPolicy(
            vip=self.vip,
            backends={n: Endpoint(b.ip, 80)
                      for n, b in {**self.backends,
                                   **self.standby_backends}.items()},
            rules=rules,
            certificate=cfg.tls_certificate,
            session_tickets=cfg.tls_session_tickets,
        )

        # load balancer tier
        self.yoda: Optional[YodaService] = None
        self.haproxy: Optional[HAProxyDeployment] = None
        self.haproxy_instances: List[HAProxyInstance] = []
        if cfg.lb == "yoda":
            # the planes travel by reference; only the tier sizes are
            # stamped onto a copy of the handle
            self.yoda = YodaService(
                self.loop, self.network, self.rng,
                replace(cfg.yoda or YodaServiceConfig(),
                        num_instances=cfg.num_lb_instances,
                        num_store_servers=cfg.num_store_servers))
            self.yoda.add_service(
                self.policy, {**self.backends, **self.standby_backends})
            self.l4lb = self.yoda.l4lb
            self.yoda.arm_elastic()
        elif cfg.lb == "haproxy":
            from repro.l4lb.service import L4LoadBalancer

            self.l4lb = L4LoadBalancer(self.loop, self.network, self.rng)
            for i in range(cfg.num_lb_instances):
                host = self.network.attach(
                    Host(f"haproxy-{i}", [f"10.4.0.{i + 1}"],
                         site=PRIMARY_SITE)
                )
                self.haproxy_instances.append(
                    HAProxyInstance(host, self.loop, self.rng))
            self.haproxy = HAProxyDeployment(
                self.loop, self.l4lb, self.haproxy_instances)
            self.haproxy.add_vip(self.policy)
        else:  # "none": validate() has refused anything else
            self.l4lb = None

        # clients
        self.client_stacks: List[TcpStack] = []
        for i in range(NUM_CLIENT_HOSTS):
            host = self.network.attach(
                Host(f"client-{i}", [f"172.16.0.{i + 1}"], site=CLIENT_SITE)
            )
            self.client_stacks.append(TcpStack(host, self.loop))

        self.loop.run_for(1.0)  # mappings & monitor settle

    def _backend(self, name: str, ip: str, site: str) -> BackendHttpServer:
        cfg = self.config
        host = self.network.attach(Host(name, [ip], site=site))
        return BackendHttpServer(
            host, self.loop, self.corpus.site,
            tls_certificate=cfg.tls_certificate,
            session_tickets=cfg.tls_session_tickets,
        )

    # ------------------------------------------------------------- targets --
    def target(self) -> Endpoint:
        """Where clients send requests: the VIP, or a backend directly when
        lb == 'none' (the paper's no-LB baseline)."""
        if self.config.lb == "none":
            first = next(iter(self.backends.values()))
            return Endpoint(first.ip, 80)
        return Endpoint(self.vip, 80)

    # -------------------------------------------------------------- clients --
    def closed_loop(self, processes: int, http_timeout: float = 30.0,
                    retries: int = 0) -> List[ClosedLoopProcess]:
        out = []
        for i in range(processes):
            stack = self.client_stacks[i % len(self.client_stacks)]
            proc = ClosedLoopProcess(
                stack, self.loop, self.target(), self.website,
                http_timeout=http_timeout, retries=retries,
            )
            proc.start()
            out.append(proc)
        return out

    def streaming(self, count: int, chunks: int = 40, chunk_bytes: int = 2_000,
                  interval_ms: int = 100, start_at: float = 0.0,
                  spacing: float = 0.05,
                  max_stalls: int = 20) -> StreamingFleet:
        """Launch long-lived paced downloads (``/stream/...`` paths)."""
        fleet = StreamingFleet(
            self.client_stacks, self.loop, self.target(),
            f"/stream/{chunks}/{chunk_bytes}/{interval_ms}", count,
            start_at=start_at, spacing=spacing, max_stalls=max_stalls,
        )
        fleet.start()
        return fleet

    def open_loop(self, rate: float, http_timeout: float = 30.0) -> OpenLoopGenerator:
        gen = OpenLoopGenerator(
            self.client_stacks[0], self.loop, self.target(), rate,
            path_fn=self.website.random_object, http_timeout=http_timeout,
        )
        gen.start()
        return gen

    # --------------------------------------------------------------- faults --
    def lb_instances(self) -> List[object]:
        """The L7 LB tier, whichever implementation is deployed."""
        if self.yoda is not None:
            return list(self.yoda.instances)
        return list(self.haproxy_instances)

    def serving_lb_instances(self) -> List[object]:
        """LB instances currently carrying flows, busiest first."""
        live = [i for i in self.lb_instances() if not i.host.failed]
        live.sort(key=self._busyness, reverse=True)
        return [i for i in live if self._busyness(i) > 0]

    @staticmethod
    def _busyness(instance) -> int:
        flows = getattr(instance, "flows", None)
        if flows is not None:  # YODA instance
            mid = sum(1 for f in flows.values()
                      if f.phase.flow_phase.value in (
                          "tunnel", "server_syn_sent", "await_header"))
            return 2 if mid else (1 if flows else 0)
        conns = instance.stack.connections()  # HAProxy instance
        return 2 if conns else 0

    def fail_lb_instances(self, count: int) -> List[str]:
        """Fail ``count`` LB instances, preferring ones carrying flows that
        are genuinely mid-transfer (the paper's interesting case), then any
        busy ones, then idle ones."""
        live = [i for i in self.lb_instances() if not i.host.failed]
        live.sort(key=self._busyness, reverse=True)
        victims = []
        for instance in live[:count]:
            instance.fail()
            victims.append(instance.name)
        return victims

    def run(self, duration: float) -> None:
        self.loop.run_for(duration)
