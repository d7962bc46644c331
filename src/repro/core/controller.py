"""The YODA controller (paper Section 6, Figure 8).

Four roles, as in the paper:

- **User interface**: converts operator policies into rules and installs
  them on the instances a VIP is assigned to (only new connections see new
  versions).
- **Assignment updater**: pushes VIP-to-instance mappings into the L4 LB.
- **Monitor**: pings YODA instances, Memcached servers and backends every
  600 ms; a failure is therefore detected with at most 600 ms delay --
  the failover clock visible in Figure 12(b).
- **Scaling**: watches instance CPU and activates spare instances
  (Figure 13); addition/removal never breaks flows because flows migrate
  through TCPStore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.core.instance import YodaInstance
from repro.core.policy import VipPolicy
from repro.errors import ControllerError, StaleLeaderEpoch
from repro.http.server import BackendHttpServer
from repro.kvstore.client import MemcachedCluster
from repro.kvstore.sitesync import SYNC_INTERVAL, SiteReplicator
from repro.l4lb.service import L4LoadBalancer
from repro.obs import OBS
from repro.qos.drain import DrainCoordinator, DrainState, DrainStatus
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry
from repro.sim.process import PeriodicTask
from repro.sim.random import SeededRng

MONITOR_INTERVAL = 0.6
DOWN_AFTER_PROBES = 2  # consecutive failed probes before marking down
UP_AFTER_PROBES = 2  # consecutive good probes before marking up again
DRAIN_DEADLINE = 10.0  # forced TCPStore handoff after this long draining
DRAIN_CHECK_INTERVAL = 0.25


class ControllerHealthView:
    """The health view the selectors consult, with up/down hysteresis.

    Reflects *monitor-detected* state, not instantaneous truth: a backend
    that just died is still selected until enough ping rounds agree.  A
    single dropped probe must not flap a healthy target out of rotation,
    so a transition needs ``down_after`` consecutive failed probes (and,
    symmetrically, ``up_after`` consecutive successes to come back).
    Unknown targets default to healthy, as before.
    """

    def __init__(self, down_after: int = DOWN_AFTER_PROBES,
                 up_after: int = UP_AFTER_PROBES) -> None:
        if down_after < 1 or up_after < 1:
            raise ValueError("hysteresis thresholds must be >= 1")
        self.down_after = down_after
        self.up_after = up_after
        self._healthy: Dict[str, bool] = {}
        self._load: Dict[str, float] = {}
        self._fail_streak: Dict[str, int] = {}
        self._ok_streak: Dict[str, int] = {}

    def is_healthy(self, backend: str) -> bool:
        return self._healthy.get(backend, True)

    def load(self, backend: str) -> float:
        return self._load.get(backend, 0.0)

    def observe(self, backend: str, ok: bool,
                load: Optional[float] = None) -> bool:
        """Feed one probe result; returns the (hysteresis-filtered) verdict."""
        if ok:
            self._fail_streak[backend] = 0
            streak = self._ok_streak.get(backend, 0) + 1
            self._ok_streak[backend] = streak
            if not self._healthy.get(backend, True) and streak >= self.up_after:
                self._healthy[backend] = True
            if load is not None:
                self._load[backend] = load
        else:
            self._ok_streak[backend] = 0
            streak = self._fail_streak.get(backend, 0) + 1
            self._fail_streak[backend] = streak
            if self._healthy.get(backend, True) and streak >= self.down_after:
                self._healthy[backend] = False
        return self._healthy.get(backend, True)

    def update(self, backend: str, healthy: bool, load: float) -> None:
        """Force-set state, bypassing hysteresis (operator override)."""
        self._healthy[backend] = healthy
        self._load[backend] = load
        self._fail_streak[backend] = 0
        self._ok_streak[backend] = 0

    def forget(self, backend: str) -> None:
        self._healthy.pop(backend, None)
        self._load.pop(backend, None)
        self._fail_streak.pop(backend, None)
        self._ok_streak.pop(backend, None)

    def assume(self, backend: str, healthy: bool) -> None:
        """Seed a verdict without hysteresis: a newly elected controller
        bootstraps its view from current truth so the first monitor round
        after a takeover cannot re-admit a dead target (the hysteresis
        default for unknown targets is healthy)."""
        self._healthy[backend] = healthy
        self._fail_streak[backend] = 0
        self._ok_streak[backend] = 0


@dataclass
class RegionConfig:
    """The multi-region plane: a standby site the controller promotes
    when the whole primary region dies."""

    standby_site: str  # e.g. "dc2"; the name fault specs refer to it by
    # asynchronous cross-site replication of the flow store (the
    # --no-replication ablation turns this off: the standby promotes
    # against an empty store and established flows cannot survive)
    replication: bool = True
    sync_interval: float = SYNC_INTERVAL  # replicator pacing (lag ablations)


@dataclass
class StandbyRegion:
    """A fully built but idle secondary region, registered for failover.

    The standby's instances serve no VIP and its store cluster holds only
    asynchronously replicated copies until :meth:`YodaController._fail_over_region`
    promotes it.
    """

    site: str
    l4lb: L4LoadBalancer
    instances: List[YodaInstance]
    kv_cluster: Optional[MemcachedCluster] = None
    replicator: Optional[SiteReplicator] = None


class YodaController:
    """Central control plane for one YODA deployment."""

    def __init__(
        self,
        loop: EventLoop,
        l4lb: L4LoadBalancer,
        instances: Sequence[YodaInstance],
        kv_cluster: Optional[MemcachedCluster] = None,
        monitor_interval: float = MONITOR_INTERVAL,
        down_after: int = DOWN_AFTER_PROBES,
        up_after: int = UP_AFTER_PROBES,
        rng: Optional[SeededRng] = None,
        drain_deadline: float = DRAIN_DEADLINE,
        drain_check_interval: float = DRAIN_CHECK_INTERVAL,
    ):
        self.loop = loop
        self.l4lb = l4lb
        self.kv_cluster = kv_cluster
        self.instances: Dict[str, YodaInstance] = {}
        self.active: Dict[str, bool] = {}  # participating in mappings
        self.spares: List[YodaInstance] = []
        self.backends: Dict[str, BackendHttpServer] = {}
        self.policies: Dict[str, VipPolicy] = {}
        self.assignments: Dict[str, List[str]] = {}  # vip -> instance names
        self.health_view = ControllerHealthView(down_after, up_after)
        self.metrics = MetricRegistry("controller")
        self._instance_alive: Dict[str, bool] = {}
        self._instance_health = ControllerHealthView(down_after, up_after)
        self._kv_health = ControllerHealthView(down_after, up_after)
        # closed-loop elastic scaling (repro.autoscale); None until armed
        # via attach_autoscaler
        self.autoscaler = None
        self.draining: Set[str] = set()
        self.drain_deadline = drain_deadline
        self.drain_check_interval = drain_check_interval
        self._drainer: Optional[DrainCoordinator] = None
        self.traffic_stats: Dict[str, int] = {}
        # Probes can themselves be lost (chaos scenarios raise this); the
        # rng is only consulted when the rate is nonzero, so healthy runs
        # keep bit-identical schedules with or without the parameter.
        self.probe_loss_rate = 0.0
        self._probe_rng = (rng or SeededRng(0)).fork("probes")
        # multi-region: a registered (idle) secondary region, and whether
        # the one-shot promotion has happened
        self._standby: Optional[StandbyRegion] = None
        self.failed_over = False
        self.failover_at: Optional[float] = None
        self.failover_records_lost = 0
        # compact stateless dispatch: latest table version each mapping
        # push carried (empty when the L4 LB has no stateless machinery).
        # Journaled so a takeover knows the floor its fencing re-push
        # must move past -- a successor may never regress a VIP's table.
        self.compact_versions: Dict[str, int] = {}
        # controller HA (core.leader): all None/identity in the
        # single-controller configuration, where this controller always
        # acts, never journals, and pushes token-free control calls.
        # ControllerReplica wires these when the control plane replicates.
        self.token = None            # LeaderToken while acting leader
        self.acting_fn = None        # replica's "may I act?" gate
        self.journal = None          # ControlJournal (durable state)
        self.on_fenced = None        # step-down hook on a rejected push

        if self.kv_cluster is not None:
            # account every store-membership transition (epoch bumps feed
            # the per-instance anti-entropy sweepers)
            self.kv_cluster.add_listener(self._on_kv_membership)

        for instance in instances:
            self._adopt(instance)
        # Probe faster than the advertised detection budget: ``down_after``
        # consecutive failed probes fit inside one monitor_interval, so the
        # paper's 600 ms worst-case detection clock still holds.
        self.monitor_interval = monitor_interval
        probe_interval = monitor_interval / max(1, down_after)
        self._monitor = PeriodicTask(loop, probe_interval, self._monitor_tick)
        self._monitor.start()

    # ------------------------------------------------------------ leadership --
    def acting(self) -> bool:
        """May this controller mutate the data plane right now?  Always
        true in the single-controller configuration; under HA, only while
        this replica holds the lease and has finished journal replay."""
        return self.acting_fn is None or self.acting_fn()

    def halt(self) -> None:
        """Stop every periodic activity (the controller process died)."""
        self._monitor.stop()
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self._drainer is not None:
            self._drainer.halt()

    def resume_monitoring(self) -> None:
        """Restart periodic activity after a crash-recovery.  Drains are
        NOT resumed here: if this replica is re-elected it replays them
        from the journal; if another replica leads, they are not ours."""
        if not self._monitor.running:
            self._monitor.start()
        if self.autoscaler is not None and not self.autoscaler.running:
            self.autoscaler.start()

    def journal_sync(self) -> None:
        """Persist the control-plane state after a mutation (leaders
        only; free in the single-controller configuration)."""
        if self.journal is None or self.token is None:
            return
        token = self.token

        def _done(ok: bool, superseded: bool) -> None:
            if superseded and self.token is token and self.on_fenced is not None:
                # a newer leader owns the journal: the store itself just
                # fenced us out; surface it like any rejected push
                self.on_fenced(StaleLeaderEpoch(
                    "yoda:ctl:journal", "journal_write", token.epoch,
                    token.holder, token.epoch + 1, "a newer leader"))

        self.journal.write(self._journal_state(), _done)

    def _journal_state(self) -> Dict:
        """The JSON snapshot a successor replays: operator progress, not
        operator intent (intent lives in the replica set's registry)."""
        drains = {}
        if self._drainer is not None:
            for name, st in self._drainer.drains.items():
                if not st.done:
                    drains[name] = {
                        "started_at": st.started_at,
                        "deadline_at": st.deadline_at,
                        "flows_at_start": st.flows_at_start,
                        "to_spare": st.to_spare,
                    }
        counters = {}
        for key in ("drains_started", "drains_completed", "drains_forced",
                    "scaled_up", "scaled_down", "region_failovers",
                    "instances_added", "instances_removed"):
            if key in self.metrics.counters:
                counters[key] = self.metrics.counters[key].value
        state = {
            "epoch": self.token.epoch if self.token is not None else -1,
            "holder": self.token.holder if self.token is not None else "",
            "assignments": {vip: list(names)
                            for vip, names in self.assignments.items()},
            "active": {n: bool(v) for n, v in self.active.items()},
            "draining": drains,
            "spares": sorted(s.name for s in self.spares),
            "failed_over": self.failed_over,
            "failover_at": self.failover_at,
            "failover_records_lost": self.failover_records_lost,
            "compact_versions": dict(self.compact_versions),
            "counters": counters,
        }
        if self.autoscaler is not None:
            # cooldown clocks + event-ledger tail: a successor's engine
            # resumes mid-flight scale events instead of re-deciding cold
            state["autoscale"] = self.autoscaler.journal_state()
        return state

    def take_over(self, token, state: Optional[Dict], registry) -> None:
        """Become the acting leader: hydrate from operator intent
        (``registry``) plus the previous leader's journal (``state``),
        then re-push everything with our lease epoch -- the re-push is
        what fences the data plane against the old leader.

        Mid-flight work is *resumed*, not restarted: drains keep their
        original absolute deadlines, and a completed region failover is
        adopted (the standby stays promoted) rather than re-promoted.
        """
        self.token = token
        prev = state or {}
        # 0. region failover the old leader already performed: adopt it
        if prev.get("failed_over") and not self.failed_over \
                and self._standby is not None:
            standby = self._standby
            if standby.replicator is not None:
                if standby.replicator.promoted:
                    self.failover_records_lost = prev.get(
                        "failover_records_lost", 0)
                else:
                    self.failover_records_lost = standby.replicator.promote()
            if standby.kv_cluster is not None:
                self.kv_cluster = standby.kv_cluster
                standby.kv_cluster.add_listener(self._on_kv_membership)
            self.l4lb = standby.l4lb
            for instance in standby.instances:
                if instance.name not in self.instances:
                    self._adopt(instance)
            self.failed_over = True
            self.failover_at = prev.get("failover_at")
        # 1. operator intent: every service the operator declared exists
        for policy, backends, instance_names in list(registry.services.values()):
            if policy.vip not in self.policies:
                self.policies[policy.vip] = policy
                if backends:
                    self.backends.update(backends)
                names = [n for n in (instance_names or list(self.instances))
                         if n in self.instances]
                self.assignments[policy.vip] = names
        for name, spare in registry.spare_pool.items():
            if name not in self.instances \
                    and all(s.name != name for s in self.spares):
                journal_spares = prev.get("spares")
                if journal_spares is None or name in journal_spares:
                    spare.backend_view = self.health_view
                    self.spares.append(spare)
        # 2. journal progress overrides intent
        for vip, names in prev.get("assignments", {}).items():
            if vip in self.policies:
                self.assignments[vip] = [n for n in names
                                         if n in self.instances]
        for name, is_active in prev.get("active", {}).items():
            if name in self.active:
                self.active[name] = bool(is_active)
        # 3. bootstrap liveness from current truth (an immediate probe
        # round) and re-bind the shared data-plane objects to OUR views:
        # each replica constructed its own health view, but only the
        # leader's is fed by a running monitor
        for name, instance in self.instances.items():
            up = not instance.host.failed
            self._instance_alive[name] = up
            self._instance_health.assume(name, up)
            instance.backend_view = self.health_view
        # backends too: a recovered stream probing in our first seconds
        # consults _backend_dead() through this view, and the unknown->
        # healthy default would tunnel it into a dead backend for good
        for bname, server in self.backends.items():
            self.health_view.assume(bname, not server.host.failed)
        # 4. re-install rules and re-anchor VIPs, fencing as we go
        for vip, policy in self.policies.items():
            self.l4lb.register_vip(vip, token=self.token)
            for name in self.assignments.get(vip, []):
                instance = self.instances.get(name)
                if instance is not None and not instance.host.failed:
                    instance.install_policy(policy, token=self.token)
        # 5. resume the old leader's unfinished drains on their original
        # absolute deadlines
        for name, info in prev.get("draining", {}).items():
            instance = self.instances.get(name)
            if instance is None:
                continue
            self.draining.add(name)
            if not instance.host.failed:
                instance.start_drain(token=self.token)
            if self._drainer is None:
                self._drainer = DrainCoordinator(self.loop, self,
                                                 self.drain_check_interval)
            self._drainer.resume(
                name, started_at=info.get("started_at", self.loop.now()),
                deadline_at=info["deadline_at"],
                flows_at_start=info.get("flows_at_start", 0),
                to_spare=info.get("to_spare", False),
            )
        # 6. the fencing push: every mapping goes out at our epoch, so
        # anything the old leader still says is rejected from here on.
        # Compact-table versions the old leader journaled are adopted
        # first: mapping versions are monotonic per L4 service, so the
        # re-pushed snapshots must land at (and record) versions at or
        # above the old leader's -- verified, not assumed.
        journaled_compact = {
            vip: int(v)
            for vip, v in (prev.get("compact_versions") or {}).items()
        }
        self.compact_versions.update(journaled_compact)
        for vip in self.policies:
            self._push_mapping(vip)
        if not self.failed_over:
            # versions are monotonic per L4 service; after a region
            # failover the standby L4's counters are independent and no
            # floor applies
            for vip, floor in journaled_compact.items():
                if self.compact_versions.get(vip, floor) < floor:
                    raise ControllerError(
                        f"compact table for {vip} regressed below the "
                        f"journaled version {floor} during takeover"
                    )
        # 5b. the old leader's autoscaler state: cooldown clocks and the
        # scale-event ledger, so the new leader's engine neither flaps
        # (cooldowns reset) nor forgets which stores were elastic.  The
        # interrupted scale-in itself was already resumed above as a
        # journaled drain.
        if self.autoscaler is not None:
            self.autoscaler.restore(prev.get("autoscale"))
        # 7. counters carry across leaderships (monotonic adoption)
        for key, value in prev.get("counters", {}).items():
            counter = self.metrics.counter(key)
            if value > counter.value:
                counter.inc(value - counter.value)
        self.metrics.counter("takeovers").inc()
        self.metrics.gauge("leader_epoch").set(float(token.epoch))
        self.journal_sync()

    # ------------------------------------------------------------ instances --
    def _adopt(self, instance: YodaInstance) -> None:
        if instance.name in self.instances:
            raise ControllerError(f"duplicate instance {instance.name!r}")
        self.instances[instance.name] = instance
        self.active[instance.name] = True
        self._instance_alive[instance.name] = True
        instance.backend_view = self.health_view

    def add_instance(self, instance: YodaInstance,
                     assign_all_vips: bool = True) -> None:
        """Bring a new instance into service without breaking any flow:
        installing policies first, then widening the L4 mappings."""
        self._adopt(instance)
        if assign_all_vips:
            for vip, policy in self.policies.items():
                instance.install_policy(policy, token=self.token)
                self.assignments[vip].append(instance.name)
                self._push_mapping(vip)
        self.metrics.counter("instances_added").inc()
        self.journal_sync()

    def add_spare(self, instance: YodaInstance) -> None:
        """Register a provisioned-but-idle instance for the autoscaler."""
        self.spares.append(instance)
        instance.backend_view = self.health_view

    def remove_instance(self, name: str) -> None:
        """Gracefully drain an instance.  Its in-flight flows migrate to
        the remaining instances through TCPStore -- no connection breaks
        (this is Problem 2 of Section 2.3 solved)."""
        if name not in self.instances:
            raise ControllerError(f"unknown instance {name!r}")
        self.active[name] = False
        for vip, assigned in self.assignments.items():
            if name in assigned:
                assigned.remove(name)
                self._push_mapping(vip, flush_instance=self.instances[name].ip)
        self._forget_instance(name)
        self.metrics.counter("instances_removed").inc()
        self.journal_sync()

    def _forget_instance(self, name: str) -> None:
        """Drop every controller-side trace of an instance that left the
        deployment.  Leaving ghost entries behind (the pre-HA behaviour)
        both distorted the monitor's health view and made a later re-add
        of the same instance -- the autoscaler's drain-to-spare round trip
        -- fail as a duplicate."""
        self.instances.pop(name, None)
        self.active.pop(name, None)
        self._instance_alive.pop(name, None)
        self._instance_health.forget(name)

    def live_instance_names(self, vip: Optional[str] = None) -> List[str]:
        names = self.assignments.get(vip, list(self.instances)) if vip \
            else list(self.instances)
        return [
            n for n in names
            if self.active.get(n) and self._instance_alive.get(n)
            and n not in self.draining
        ]

    # -------------------------------------------------------------- draining --
    def drain_instance(self, name: str, deadline: Optional[float] = None,
                       to_spare: bool = False) -> DrainStatus:
        """Scale an instance in without breaking its flows (make before
        break, DESIGN.md section 7).

        The instance leaves the mux hash rings immediately -- no new SYN
        lands on it -- but stays reachable through its SNAT ownership and
        flow-table pins, so established flows finish in place.  When its
        flow table empties it is removed cleanly; if ``deadline`` elapses
        first, the survivors are handed off through TCPStore (the
        failover path, invoked deliberately).
        """
        if name not in self.instances:
            raise ControllerError(f"unknown instance {name!r}")
        if name in self.draining:
            raise ControllerError(f"instance {name!r} is already draining")
        if not [n for n in self.live_instance_names() if n != name]:
            raise ControllerError("cannot drain the last live instance")
        instance = self.instances[name]
        self.draining.add(name)
        instance.start_drain(token=self.token)
        if self._drainer is None:
            self._drainer = DrainCoordinator(self.loop, self,
                                             self.drain_check_interval)
        status = self._drainer.start(
            name, self.drain_deadline if deadline is None else deadline,
            to_spare=to_spare,
        )
        self.metrics.counter("drains_started").inc()
        if OBS.enabled:
            OBS.flight("controller", "drain_start",
                       f"{name} flows={status.flows_at_start} "
                       f"deadline={status.deadline_at:.3f}")
        for vip, assigned in self.assignments.items():
            if name in assigned:
                self._push_mapping(vip)
        self.journal_sync()
        return status

    def _finish_drain(self, status: DrainStatus, crashed: bool = False) -> None:
        """DrainCoordinator callback: the instance emptied, timed out, or
        crashed mid-drain."""
        name = status.name
        self.draining.discard(name)
        instance = self.instances.get(name)
        self.active[name] = False
        vips = [vip for vip, assigned in self.assignments.items()
                if name in assigned]
        for vip in vips:
            self.assignments[vip].remove(name)
            self._push_mapping(vip)
        if instance is not None and not crashed:
            if status.state is DrainState.FORCED:
                # Deadline hit: forget local state (keeping the TCPStore
                # records) and flush the mux pins, so the ring re-hashes
                # the survivors' next packets onto live instances, which
                # recover them.  The SNAT range stays allocated: recovered
                # flows keep their ports.
                instance.release_flows(token=self.token)
                self.l4lb.flush_instance(instance.ip, token=self.token)
                self.metrics.counter("drains_forced").inc()
            else:
                for vip in vips:
                    self.l4lb.snat.release(vip, instance.ip)
                # Every flow finished, but the muxes still hold this
                # instance's 5-tuple pins until their idle timeout.  The
                # client-side keys are ephemeral; the server-side keys
                # (backend -> VIP:snat-port) RECUR the moment the released
                # port block is re-allocated -- a stale pin would then
                # steer the new owner's SYN-ACKs at this parked instance,
                # which RSTs them.  Flush now, while the pins are dead.
                self.l4lb.flush_instance(instance.ip, token=self.token)
                self.metrics.counter("drains_completed").inc()
            # the instance has left the deployment: drop its monitor and
            # health-view entries so a later re-add starts clean
            self._forget_instance(name)
        self.metrics.counter("instances_removed").inc()
        if status.to_spare and instance is not None and not crashed:
            instance.draining = False
            self.spares.append(instance)
        self.journal_sync()

    # ----------------------------------------------------------------- VIPs --
    def add_vip(self, policy: VipPolicy,
                backends: Optional[Dict[str, BackendHttpServer]] = None,
                instance_names: Optional[List[str]] = None) -> None:
        """VIP addition (Section 5.2): compute/record the assignment,
        install rules on the assigned instances, then map the VIP at the
        L4 LB -- strictly in that order, so no packet arrives at an
        instance without rules."""
        vip = policy.vip
        if vip in self.policies:
            raise ControllerError(f"VIP {vip} already exists")
        self.policies[vip] = policy
        if backends:
            for name, server in backends.items():
                self.backends[name] = server
        names = instance_names or [
            n for n, live in self._instance_alive.items()
            if live and self.active.get(n) and n not in self.draining
        ]
        if not names:
            raise ControllerError("no live instances to assign the VIP to")
        self.assignments[vip] = list(names)
        for name in names:
            self.instances[name].install_policy(policy, token=self.token)
        self.l4lb.register_vip(vip, token=self.token)
        self._push_mapping(vip)
        self.metrics.counter("vips_added").inc()
        self.journal_sync()

    def remove_vip(self, vip: str) -> None:
        """Reverse order of addition: unmap first, then drop rules."""
        if vip not in self.policies:
            raise ControllerError(f"unknown VIP {vip}")
        self.l4lb.unregister_vip(vip, token=self.token)
        for name in self.assignments.pop(vip, []):
            instance = self.instances.get(name)
            if instance is not None:
                instance.remove_policy(vip, token=self.token)
        del self.policies[vip]
        # decommission backends no remaining policy references: ghost
        # health entries distort fail-open selection (which scans the
        # view) and would pin dead verdicts forever
        for bname in list(self.backends):
            if not any(bname in p.backends for p in self.policies.values()):
                del self.backends[bname]
                self.health_view.forget(bname)
        self.metrics.counter("vips_removed").inc()
        self.journal_sync()

    def update_policy(self, policy: VipPolicy) -> None:
        """Push a new policy version.  Instances apply it to new
        connections only, so existing flows are never re-routed
        (Section 5.2, the Figure 14 experiment)."""
        vip = policy.vip
        if vip not in self.policies:
            raise ControllerError(f"unknown VIP {vip}")
        if policy.version <= self.policies[vip].version:
            policy = self.policies[vip].updated(
                rules=policy.rules, backends=policy.backends
            )
        self.policies[vip] = policy
        for name in self.assignments.get(vip, []):
            instance = self.instances.get(name)
            if instance is not None:
                instance.install_policy(policy, token=self.token)
        self.metrics.counter("policy_updates").inc()

    def set_assignment(self, vip: str, instance_names: List[str]) -> None:
        """Install a (re)computed VIP-to-instance assignment (Section 4.5)."""
        if vip not in self.policies:
            raise ControllerError(f"unknown VIP {vip}")
        policy = self.policies[vip]
        for name in instance_names:
            self.instances[name].install_policy(policy, token=self.token)
        removed = set(self.assignments.get(vip, [])) - set(instance_names)
        self.assignments[vip] = list(instance_names)
        self._push_mapping(vip)
        self.journal_sync()
        # rules on removed instances are dropped lazily once their flows
        # drain; the mapping change is what redirects traffic

    def _push_mapping(self, vip: str, flush_instance: Optional[str] = None) -> None:
        assigned = self.assignments.get(vip, [])
        ips = [
            self.instances[n].ip
            for n in assigned
            if self._instance_alive.get(n) and self.active.get(n)
            and n not in self.draining
        ]
        # draining instances leave the hash ring (no new SYNs) but stay
        # known to the muxes so pinned/SNAT-owned flows still reach them
        draining_ips = [
            self.instances[n].ip
            for n in assigned
            if n in self.draining
            and self._instance_alive.get(n) and self.active.get(n)
        ]
        self.l4lb.update_mapping(vip, ips, flush_removed=True,
                                 draining_ips=draining_ips, token=self.token)
        compact_version = self.l4lb.compact_version(vip)
        if compact_version is not None:
            self.compact_versions[vip] = compact_version

    # --------------------------------------------------------------- monitor --
    def _probe(self, host) -> bool:
        """One health ping: fails when the host is down or the probe
        itself is lost in transit."""
        if host.failed:
            return False
        if self.probe_loss_rate and self._probe_rng.random() < self.probe_loss_rate:
            self.metrics.counter("probes_lost").inc()
            return False
        return True

    def _monitor_tick(self) -> None:
        """One guarded monitor round.

        Two layers of protection around the actual pass:

        - leadership: a replica that is not the acting leader observes
          nothing and mutates nothing (the data plane must be statically
          stable while leaderless, and doubly-probed under a duel);
        - containment: a raising probe, breaker callback or push must not
          propagate out of the periodic task -- that would silently kill
          monitoring forever.  Fencing rejections demote this replica;
          anything else is recorded and the next round proceeds.
        """
        if not self.acting():
            return
        try:
            self._monitor_pass()
        except StaleLeaderEpoch as exc:
            self.metrics.counter("pushes_fenced").inc()
            if OBS.enabled:
                OBS.flight("controller", "fenced", str(exc))
            if self.on_fenced is not None:
                self.on_fenced(exc)
        except Exception as exc:  # noqa: BLE001 - the containment boundary
            self.metrics.counter("monitor_tick_errors").inc()
            if OBS.enabled:
                OBS.flight("controller", "monitor_error",
                           f"{type(exc).__name__}: {exc}")

    def _monitor_pass(self) -> None:
        # YODA instances: remove failed ones from every mapping + flush
        for name, instance in self.instances.items():
            alive = self._instance_health.observe(name, self._probe(instance.host))
            if not alive and self._instance_alive.get(name, True):
                self._instance_alive[name] = False
                self.metrics.counter("instance_failures_detected").inc()
                if OBS.enabled:
                    OBS.flight("controller", "instance_down",
                               f"{name} removed from mappings")
                for vip, assigned in self.assignments.items():
                    if name in assigned:
                        self._push_mapping(vip)
            elif alive and not self._instance_alive.get(name, True):
                self._instance_alive[name] = True
                if OBS.enabled:
                    OBS.flight("controller", "instance_up",
                               f"{name} readmitted to mappings")
                for vip, assigned in self.assignments.items():
                    if name in assigned:
                        self._push_mapping(vip)
        # backends: update the health view the selectors consult.  Load is
        # only readable when the probe comes back.
        for name, server in self.backends.items():
            ok = self._probe(server.host)
            self.health_view.observe(
                name, ok, load=float(server.active_requests) if ok else None
            )
        # Memcached servers: drop dead ones from the replication ring.
        # mark_live respects client-imposed quarantines, so the monitor
        # cannot re-admit a server the data path just proved unresponsive.
        if self.kv_cluster is not None:
            self._monitor_kv_cluster(self.kv_cluster)
        # the standby region's store is monitored too (pre-failover it is
        # not ``self.kv_cluster`` yet): WAN-partition timeouts make the
        # relay's client mark secondary servers dead, and only the monitor
        # re-admits them once their quarantine expires
        if (self._standby is not None and not self.failed_over
                and self._standby.kv_cluster is not None):
            self._monitor_kv_cluster(self._standby.kv_cluster)
        # region failover: every primary instance is confirmed down (per
        # the same hysteresis that governs single-instance removal) and a
        # standby region is registered.  The probe consults ``host.failed``
        # directly, so a WAN partition -- primary alive but unreachable
        # from afar -- never looks like region death: that is the
        # split-brain guard (no second region ever serves a VIP while the
        # first still owns it).
        if (self._standby is not None and not self.failed_over
                and self.instances
                and not any(self._instance_alive[n] for n in self.instances)):
            self._fail_over_region()
        # traffic statistics from the instances
        for name, instance in self.instances.items():
            if self._instance_alive[name]:
                for vip, count in instance.read_and_reset_traffic().items():
                    self.traffic_stats[vip] = self.traffic_stats.get(vip, 0) + count

    def _monitor_kv_cluster(self, cluster: MemcachedCluster) -> None:
        for name, server in list(cluster.servers.items()):
            ok = self._kv_health.observe(name, self._probe(server.host))
            if not ok and name in cluster.ring:
                cluster.mark_dead(name)
                self.metrics.counter("kv_failures_detected").inc()
                if OBS.enabled:
                    OBS.flight("controller", "kv_down",
                               f"{name} dropped from replication ring")
            elif ok and name not in cluster.ring:
                cluster.mark_live(name, now=self.loop.now())
                if OBS.enabled:
                    OBS.flight("controller", "kv_up",
                               f"{name} back in replication ring")

    # ------------------------------------------------------------ multi-region --
    def register_standby_region(self, region: StandbyRegion) -> None:
        """Arm a built-but-idle secondary region for automatic failover."""
        if self._standby is not None:
            raise ControllerError("a standby region is already registered")
        for instance in region.instances:
            if instance.name in self.instances:
                raise ControllerError(
                    f"standby instance {instance.name!r} collides with a "
                    f"primary instance")
            instance.backend_view = self.health_view
        self._standby = region

    def _fail_over_region(self) -> None:
        """The primary region is gone: promote the secondary and re-home
        every VIP there (the paper's instance-failover mechanism, Section
        4.4, generalized to whole sites).

        The order mirrors ``add_vip`` exactly: promote the store first
        (recovery reads must see the replicated records, not race the
        promotion), install rules on the standby instances, then re-anchor
        each VIP on the standby router and push mappings -- so no packet
        reaches an instance without rules.
        """
        standby = self._standby
        assert standby is not None
        self.failed_over = True
        self.failover_at = self.loop.now()
        dead_ips = [inst.ip for name, inst in self.instances.items()
                    if not self._instance_alive.get(name)]
        # 1. promote the secondary store: cross-site shipping stops, the
        # unshipped backlog is the failover's data loss, and stale copies
        # converge through newest-wins + read-repair on recovery reads
        if standby.replicator is not None:
            self.failover_records_lost = standby.replicator.promote()
        if standby.kv_cluster is not None:
            self.kv_cluster = standby.kv_cluster
            standby.kv_cluster.add_listener(self._on_kv_membership)
        # 2. the standby instances join the deployment
        primary_l4lb = self.l4lb
        self.l4lb = standby.l4lb
        for instance in standby.instances:
            self._adopt(instance)
        names = [inst.name for inst in standby.instances]
        for vip, policy in self.policies.items():
            for instance in standby.instances:
                instance.install_policy(policy, token=self.token)
            self.assignments[vip] = list(names)
            # 3. VIP re-anchoring: claiming the VIP onto the standby
            # router re-points the fabric route, and deliveries re-check
            # routes, so even packets already in flight land on the new
            # region
            self.l4lb.register_vip(vip, token=self.token)
            # 4. mapping push doubles as SNAT-range re-derivation: the
            # standby allocator mints a fresh port block per (VIP,
            # instance) as the mapping installs
            self._push_mapping(vip)
        # 5. flush the dead region's mux pins -- harmless when the primary
        # router died with its site, load-bearing for partial-site
        # failures where surviving muxes would keep steering pinned flows
        # at dead instances
        for ip in dead_ips:
            primary_l4lb.flush_instance(ip, token=self.token)
        self.metrics.counter("region_failovers").inc()
        self.metrics.gauge("failover_records_lost").set(
            float(self.failover_records_lost))
        if OBS.enabled:
            OBS.flight("controller", "region_failover",
                       f"promoted {standby.site}: {len(names)} instances "
                       f"take over, {self.failover_records_lost} unshipped "
                       f"records lost")
        self.journal_sync()

    # -------------------------------------------------------- store membership --
    def _on_kv_membership(self, event: str, name: str) -> None:
        self.metrics.counter(f"kv_membership_{event}").inc()

    def decommission_store(self, name: str) -> None:
        """Retire a Memcached server from the deployment for good.  Unlike
        ``mark_dead`` this removes it from the membership map too, so
        long-lived clients prune their per-server bookkeeping (timeout
        streaks, hinted writes, pending-op targets) instead of carrying it
        forever."""
        if self.kv_cluster is None:
            raise ControllerError("deployment has no kv cluster")
        if not self.kv_cluster.remove(name):
            raise ControllerError(f"unknown store server {name!r}")
        self._kv_health.forget(name)
        self.metrics.counter("stores_decommissioned").inc()

    # ------------------------------------------------------------- autoscale --
    def attach_autoscaler(self, autoscaler) -> None:
        """Bind (and start) a closed-loop autoscaler on this replica."""
        if self.autoscaler is not None:
            self.autoscaler.stop()
        self.autoscaler = autoscaler
        # fresh utilization windows so the first decision sees only
        # post-arming load
        for instance in self.instances.values():
            instance.cpu.reset_window()
        autoscaler.start()
