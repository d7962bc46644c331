"""One-call construction of a complete YODA deployment.

Wires up, in the testbed's shape (Section 7 setup): an L4 LB, N YODA
instance VMs, M Memcached (TCPStore) VMs with a shared cluster view, and
the controller.  Experiments and examples build on this instead of
hand-assembling hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.autoscale.engine import Autoscaler
from repro.autoscale.decision import ElasticPolicy
from repro.core.controller import YodaController
from repro.core.instance import YodaCostModel, YodaInstance
from repro.core.leader import (
    ControllerHAConfig,
    ControllerReplica,
    ControllerReplicaSet,
    FenceGate,
    LeaderElector,
)
from repro.core.policy import VipPolicy
from repro.core.region import RegionConfig, StandbyRegion
from repro.core.tcpstore import TcpStore
from repro.errors import ConfigError
from repro.http.server import BackendHttpServer
from repro.kvstore.client import MemcachedCluster, ReplicatingKvClient
from repro.kvstore.memcached import MemcachedServer
from repro.kvstore.repair import FlowStateRepairer
from repro.kvstore.sitesync import SiteReplicator
from repro.l4lb.compact import StatelessConfig
from repro.l4lb.service import L4LoadBalancer
from repro.net.host import Host
from repro.net.network import Network
from repro.qos.config import QosConfig
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

STORE_REPLICAS = 2  # K: TCPStore servers each flow record is written to
PRIMARY_SITE = "dc"  # the standby region's site name is RegionConfig's
# address plan: "<prefix>.0.<n>" per tier
INSTANCE_PREFIX, STORE_PREFIX, CONTROLLER_PREFIX = "10.1", "10.2", "10.8"
STANDBY_INSTANCE_PREFIX, STANDBY_STORE_PREFIX = "10.5", "10.6"
STANDBY_ROUTER_IP = "10.255.0.2"
SYNC_OP_TIMEOUT = 0.25  # relay -> standby store; must exceed the WAN round trip
KV_OP_TIMEOUT = 0.1  # instance / controller replica -> its site's stores
NUM_MUXES = 4  # software mux replicas per site


@dataclass
class YodaServiceConfig:
    """One YODA tier: its sizes and its planes.

    Every yoda-tier option is declared here and nowhere else --
    ``TestbedConfig`` and ``Scenario`` carry a handle to one of these
    instead of mirroring its fields.  A plane whose field is ``None`` is
    absent: nothing of it is constructed, which is what keeps the pinned
    packet schedules bit-identical.  Defaults mirror the paper's testbed.
    """

    num_instances: int = 10
    num_store_servers: int = 10
    # self-healing store: read-repair + hinted handoff in the clients and
    # an anti-entropy sweeper per instance.  Off = the paper's client-side
    # replication exactly as published (the durability ablation).
    self_healing: bool = True
    cost_model: YodaCostModel = field(default_factory=YodaCostModel)
    # -- planes (None = absent) --
    # overload control; a default QosConfig is armed but neutral -- it
    # never sheds, breaks or limits
    qos: Optional[QosConfig] = None
    # compact stateless fast path; a default StatelessConfig is armed but
    # inert (snapshots ride every push, dispatch unchanged), enabled=True
    # flips the mux to O(1) dispatch and the instances to no durable writes
    stateless: Optional[StatelessConfig] = None
    region: Optional[RegionConfig] = None  # standby region + replication
    controllers: Optional[ControllerHAConfig] = None  # None = one singleton
    # slow-loris guard: kill flows that never complete their request
    # headers within this many seconds of the SYN
    header_deadline: Optional[float] = None
    # closed-loop elastic scaling, applied by :meth:`YodaService.arm_elastic`
    # once a service is onboarded: the policy every controller (replica)
    # runs, and the pre-provisioned idle instance VMs it may adopt
    autoscale: Optional[ElasticPolicy] = None
    spare_instances: int = 0

    @property
    def stateless_enabled(self) -> bool:
        """Stateless dispatch is on (armed-but-disabled does not count)."""
        return self.stateless is not None and self.stateless.enabled

    def validate(self) -> None:
        """Refuse, before anything is built, what cannot work."""
        for name in ("num_instances", "num_store_servers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.spare_instances < 0:
            raise ConfigError(
                f"spare_instances must be >= 0, got {self.spare_instances}")
        qos = self.qos
        if qos is not None:
            # a bucket is built at the first SYN and a tier's floor read at
            # every one: refuse here what would raise out of the event loop
            if qos.admission_rate is not None and not qos.admission_rate > 0:
                raise ConfigError(
                    f"qos.admission_rate must be > 0 (None admits every SYN), "
                    f"got {qos.admission_rate}")
            if not qos.admission_burst > 0:
                raise ConfigError(
                    f"qos.admission_burst must be > 0, got {qos.admission_burst}")
            if not qos.tier_floors:
                raise ConfigError("qos.tier_floors must give tier 0 a floor")
        if self.controllers is not None and self.controllers.replicas < 1:
            raise ConfigError(
                f"controllers.replicas must be >= 1, got "
                f"{self.controllers.replicas} (controllers=None is the singleton)")
        if self.region is not None:
            if self.region.standby_site == PRIMARY_SITE:
                raise ConfigError(
                    f"standby region and primary share the site name {PRIMARY_SITE!r}")
            if self.stateless_enabled:
                raise ConfigError(
                    "stateless dispatch writes no durable flow state, so a "
                    "standby region has nothing to resume established flows "
                    "from: region and stateless.enabled exclude each other")

    def non_default(self) -> List[str]:
        """Names of the options that differ from a default tier."""
        default = YodaServiceConfig()
        return [f.name for f in fields(self)
                if getattr(self, f.name) != getattr(default, f.name)]


class YodaService:
    """A fully wired YODA deployment."""

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        rng: SeededRng,
        config: Optional[YodaServiceConfig] = None,
    ):
        self.loop = loop
        self.network = network
        self.rng = rng
        self.config = config or YodaServiceConfig()
        cfg = self.config
        cfg.validate()

        self.l4lb = L4LoadBalancer(
            loop, network, rng, num_muxes=NUM_MUXES,
            stateless=cfg.stateless,
        )

        self.store_servers: List[MemcachedServer] = []
        for _ in range(cfg.num_store_servers):
            self.new_spare_store()
        self.kv_cluster = MemcachedCluster(self.store_servers)

        self.instances: List[YodaInstance] = []
        self.repairers: List[FlowStateRepairer] = []
        for i in range(cfg.num_instances):
            self.instances.append(self._build_instance(i))
        self._next_instance_id = cfg.num_instances
        self.autoscalers: List[Autoscaler] = []  # armed by enable_elastic

        # the singleton controller is constructed here, before any standby
        # region; the replicated control plane is built strictly after
        # everything else exists
        self._controller: Optional[YodaController] = None
        self.replica_set: Optional[ControllerReplicaSet] = None
        self.controller_replicas: List[ControllerReplica] = []
        self.lease_cluster: Optional[MemcachedCluster] = None
        self.standby_region: Optional[StandbyRegion] = None
        if cfg.controllers is None:
            self._controller = self._build_controller()

        # multi-region: everything standby is built strictly after the
        # single-site deployment, so a 1-site run constructs exactly what
        # it always did
        self.standby_l4lb: Optional[L4LoadBalancer] = None
        self.standby_store_servers: List[MemcachedServer] = []
        self.standby_kv_cluster: Optional[MemcachedCluster] = None
        self.standby_instances: List[YodaInstance] = []
        self.replicator: Optional[SiteReplicator] = None
        if cfg.region is not None:
            self._build_standby_region(cfg.region)

        if cfg.controllers is not None:
            self._build_controller_replicas(cfg.controllers)

    @property
    def controller(self) -> YodaController:
        """The controller operator commands go to: the singleton, or --
        replicated -- the acting leader's controller."""
        if self._controller is not None:
            return self._controller
        assert self.replica_set is not None
        return self.replica_set.leader_controller

    def _build_controller(self) -> YodaController:
        return YodaController(
            self.loop, self.l4lb, self.instances, kv_cluster=self.kv_cluster,
            rng=self.rng,
        )

    def _build_controller_replicas(self, ha: ControllerHAConfig) -> None:
        """Construct N controller replicas, each a killable host with its
        own lease/journal store client and a cold ``YodaController`` over
        the shared data plane.  The lease cluster is a *union* membership
        view over every store server in the deployment (both sites when a
        standby exists), so leadership survives a region kill."""
        cfg = self.config
        lease_servers = list(self.store_servers) + list(self.standby_store_servers)
        self.lease_cluster = MemcachedCluster(lease_servers)
        self.replica_set = ControllerReplicaSet(self.loop, self.lease_cluster)
        # arm stale-leader fencing on every control-plane receiver
        self.l4lb.fence = FenceGate(self.l4lb.router.name)
        if self.standby_l4lb is not None:
            self.standby_l4lb.fence = FenceGate(self.standby_l4lb.router.name)
        for instance in [*self.instances, *self.standby_instances]:
            instance.fence = FenceGate(instance.name)
        sites = ([PRIMARY_SITE] if cfg.region is None
                 else [PRIMARY_SITE, cfg.region.standby_site])
        for i in range(ha.replicas):
            host = self.network.attach(Host(
                f"ctl-{i}", [f"{CONTROLLER_PREFIX}.0.{i + 1}"],
                site=sites[i % len(sites)],
            ))
            kv = ReplicatingKvClient(
                host, self.loop, self.lease_cluster,
                replicas=min(3, len(lease_servers)),
                op_timeout=KV_OP_TIMEOUT, max_retries=1,
                rng=self.rng.fork(f"kv/{host.name}"),
                self_healing=False,
            )
            host.set_handler(kv.handle_response)
            controller = self._build_controller()
            if self.standby_region is not None:
                controller.region.register(controller, self.standby_region)
            replica = ControllerReplica(host, self.loop, kv, controller,
                                        self.replica_set)
            # staggered first polls make replica 0 the deterministic first
            # claimant; later replicas read its live lease and follow
            elector = LeaderElector(
                host, self.loop, kv, self.lease_cluster,
                grace=ha.stepdown_grace, start_delay=0.01 + 0.11 * i,
            )
            replica.attach_elector(elector)
            self.replica_set.add_replica(replica)
            self.controller_replicas.append(replica)
            elector.start()

    def _build_standby_region(self, region: RegionConfig) -> None:
        """Construct the secondary site: its own L4 LB (router + muxes),
        store cluster and standby instances, plus -- unless ablated -- the
        cross-site replicator relay feeding it.  The controller
        orchestrates promotion when the primary region dies."""
        cfg = self.config
        site = region.standby_site
        self.standby_l4lb = L4LoadBalancer(
            self.loop, self.network, self.rng.fork("standby"),
            num_muxes=NUM_MUXES, router_ip=STANDBY_ROUTER_IP,
            router_name="l4-router-standby", site=site,
            stateless=cfg.stateless,
        )
        for i in range(cfg.num_store_servers):
            host = self.network.attach(
                Host(f"tcpstore-s-{i}",
                     [f"{STANDBY_STORE_PREFIX}.0.{i + 1}"], site=site)
            )
            self.standby_store_servers.append(MemcachedServer(host, self.loop))
        self.standby_kv_cluster = MemcachedCluster(self.standby_store_servers)
        if region.replication:
            # the relay lives in the PRIMARY site: shipped records pay the
            # real WAN latency, and a region kill takes the relay (and its
            # unshipped backlog) down with everything else
            relay = self.network.attach(
                Host("sitesync-relay", ["10.7.0.1"], site=PRIMARY_SITE)
            )
            relay_kv = ReplicatingKvClient(
                relay, self.loop, self.standby_kv_cluster,
                replicas=STORE_REPLICAS, op_timeout=SYNC_OP_TIMEOUT,
                rng=self.rng.fork("kv/sitesync-relay"),
                self_healing=False,
            )
            relay.set_handler(relay_kv.handle_response)
            self.replicator = SiteReplicator(
                self.loop, relay_kv, interval=region.sync_interval)
            self.replicator.start()
            for instance in self.instances:
                instance.tcpstore.replicator = self.replicator
        for i in range(cfg.num_instances):
            self.standby_instances.append(self._build_instance(
                i, name=f"yoda-s-{i}",
                ip=f"{STANDBY_INSTANCE_PREFIX}.0.{i + 1}", site=site,
                cluster=self.standby_kv_cluster, l4lb=self.standby_l4lb,
            ))
        self.standby_region = StandbyRegion(
            site=site, l4lb=self.standby_l4lb,
            instances=self.standby_instances,
            kv_cluster=self.standby_kv_cluster,
            replicator=self.replicator,
        )
        if self._controller is not None:
            self._controller.region.register(self._controller,
                                             self.standby_region)

    def _build_instance(self, index: int, name: Optional[str] = None,
                        ip: Optional[str] = None, site: Optional[str] = None,
                        cluster: Optional[MemcachedCluster] = None,
                        l4lb: Optional[L4LoadBalancer] = None) -> YodaInstance:
        cfg = self.config
        host = self.network.attach(
            Host(name or f"yoda-{index}",
                 [ip or f"{INSTANCE_PREFIX}.0.{index + 1}"],
                 site=site or PRIMARY_SITE)
        )
        kv = ReplicatingKvClient(
            host, self.loop, cluster or self.kv_cluster,
            replicas=STORE_REPLICAS, op_timeout=KV_OP_TIMEOUT,
            rng=self.rng.fork(f"kv/{host.name}"),
            self_healing=cfg.self_healing,
        )
        instance = YodaInstance(
            host, self.loop, self.rng, TcpStore(kv),
            cost_model=cfg.cost_model,
            l4lb=l4lb or self.l4lb, qos_config=cfg.qos,
            header_deadline=cfg.header_deadline,
            stateless=cfg.stateless_enabled,
        )
        if cfg.self_healing:
            repairer = FlowStateRepairer(
                self.loop, kv, instance.durable_records)
            repairer.start()
            self.repairers.append(repairer)
        return instance

    # -- convenience -----------------------------------------------------------
    def new_spare_instance(self) -> YodaInstance:
        """Provision an extra instance VM and hand it to the autoscaler."""
        instance = self._build_instance(self._next_instance_id)
        self._next_instance_id += 1
        self.instances.append(instance)  # it is a VM, even while idle
        if self.replica_set is not None:
            instance.fence = FenceGate(instance.name)
            self.replica_set.add_spare(instance)
        else:
            self.controller.add_spare(instance)
        return instance

    def new_spare_store(self) -> MemcachedServer:
        """Provision one more TCPStore VM: the initial cluster is built
        from these, and store-replica scale-out adds to it.  The caller
        (the autoscaler) adds a late one to the cluster; that
        membership-epoch bump is what triggers anti-entropy refill."""
        i = len(self.store_servers)
        host = self.network.attach(
            Host(f"tcpstore-{i}", [f"{STORE_PREFIX}.0.{i + 1}"],
                 site=PRIMARY_SITE)
        )
        server = MemcachedServer(host, self.loop)
        self.store_servers.append(server)
        return server

    def arm_elastic(self) -> None:
        """Provision the configured spare instances and arm the configured
        autoscaler.  A separate step from construction because it must
        follow ``add_service`` (``Testbed`` calls it right after)."""
        for _ in range(self.config.spare_instances):
            self.new_spare_instance()
        if self.config.autoscale is not None:
            self.enable_elastic(self.config.autoscale)

    def enable_elastic(self, policy: ElasticPolicy,
                       scraper=None) -> List[Autoscaler]:
        """Arm closed-loop elastic scaling (``repro.autoscale``).

        Under controller HA every replica gets its own engine with the
        same policy: the ``acting()`` gate means only the leader's ticks
        actuate, and a takeover restores the journaled cooldown clocks
        and event ledger so the loop resumes instead of restarting.
        """
        targets = ([self._controller] if self._controller is not None
                   else [r.controller for r in self.controller_replicas])
        self.autoscalers = []
        for ctl in targets:
            ctl.attach_autoscaler(Autoscaler(
                ctl, policy,
                spawn_instance=self.new_spare_instance,
                spawn_store=self.new_spare_store,
                scraper=scraper,
            ))
            self.autoscalers.append(ctl.autoscaler)
        return self.autoscalers

    def add_service(
        self,
        policy: VipPolicy,
        backends: Dict[str, BackendHttpServer],
        instance_names: Optional[List[str]] = None,
    ) -> None:
        """Onboard one online service (VIP + backends + rules).  With a
        replicated control plane this records operator intent in the
        replica set's registry; the first elected leader installs it."""
        if self.replica_set is not None:
            self.replica_set.add_vip(policy, backends, instance_names)
        else:
            self.controller.add_vip(policy, backends=backends,
                                    instance_names=instance_names)

    def settle(self, duration: float = 1.0) -> None:
        """Run the loop briefly so mappings/health state propagate."""
        self.loop.run_for(duration)
