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

Two planes sit behind one reference each: controller HA
(``core.leader``, ``self.ha``) and region failover (``core.region``,
``self.region``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.instance import YodaInstance
from repro.core.policy import VipPolicy
from repro.core.region import RegionPlane
from repro.errors import ControllerError, StaleLeaderEpoch
from repro.http.server import BackendHttpServer
from repro.kvstore.client import MemcachedCluster
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


class YodaController:
    """Central control plane for one YODA deployment."""

    def __init__(
        self,
        loop: EventLoop,
        l4lb: L4LoadBalancer,
        instances: Sequence[YodaInstance],
        kv_cluster: Optional[MemcachedCluster] = None,
        rng: Optional[SeededRng] = None,
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
        self.health_view = ControllerHealthView()
        self.metrics = MetricRegistry("controller")
        # the monitor's verdict per instance: the one record of "is it up"
        self.instance_health = ControllerHealthView()
        self._kv_health = ControllerHealthView()
        # closed-loop elastic scaling (repro.autoscale); None until armed
        # via attach_autoscaler
        self.autoscaler = None
        # owns every drain; its task schedules nothing until one starts
        self.drainer = DrainCoordinator(loop, self, DRAIN_CHECK_INTERVAL)
        self.traffic_stats: Dict[str, int] = {}
        # Probes can themselves be lost (chaos scenarios raise this); the
        # rng is only consulted when the rate is nonzero, so healthy runs
        # keep bit-identical schedules with or without the parameter.
        self.probe_loss_rate = 0.0
        self._probe_rng = (rng or SeededRng(0)).fork("probes")
        # multi-region (core.region): inert until a standby is registered
        self.region = RegionPlane()
        # compact stateless dispatch: latest table version each mapping
        # push carried (empty when the L4 LB has no stateless machinery).
        # Journaled so a takeover knows the floor its fencing re-push
        # must move past -- a successor may never regress a VIP's table.
        self.compact_versions: Dict[str, int] = {}
        # controller HA: the LeaderToken every push carries while this
        # replica leads, and its core.leader.ControllerReplica.  Both stay
        # None for a single controller, which always acts, never journals
        # and pushes token-free control calls.
        self.token = None
        self.ha = None

        if self.kv_cluster is not None:
            # account every store-membership transition (epoch bumps feed
            # the per-instance anti-entropy sweepers)
            self.kv_cluster.add_listener(self.on_kv_membership)

        for instance in instances:
            self.adopt(instance)
        # Probe faster than the advertised detection budget:
        # DOWN_AFTER_PROBES consecutive failed probes fit inside one
        # monitor_interval, so the paper's 600 ms worst-case detection
        # clock still holds.
        self.monitor_interval = MONITOR_INTERVAL
        probe_interval = MONITOR_INTERVAL / DOWN_AFTER_PROBES
        self._monitor = PeriodicTask(loop, probe_interval, self._monitor_tick)
        self._monitor.start()

    # ------------------------------------------------------------ leadership --
    def acting(self) -> bool:
        """May this controller mutate the data plane right now?  Always
        true in the single-controller configuration; under HA, only while
        this replica holds the lease and has finished journal replay."""
        return self.ha is None or self.ha.acting()

    def halt(self) -> None:
        """Stop every periodic activity (the controller process died)."""
        self._monitor.stop()
        if self.autoscaler is not None:
            self.autoscaler.stop()
        self.drainer.halt()

    def persist(self) -> None:
        """Journal the control-plane state after a mutation: HA replicas
        only (``ControllerReplica.journal_sync``); a single controller
        keeps no journal."""
        if self.ha is not None:
            self.ha.journal_sync()

    def resume_monitoring(self) -> None:
        """Restart periodic activity after a crash-recovery.  Drains are
        NOT resumed here: if this replica is re-elected it replays them
        from the journal; if another replica leads, they are not ours."""
        if not self._monitor.running:
            self._monitor.start()
        if self.autoscaler is not None and not self.autoscaler.running:
            self.autoscaler.start()

    # ------------------------------------------------------------ instances --
    def adopt(self, instance: YodaInstance) -> None:
        if instance.name in self.instances:
            raise ControllerError(f"duplicate instance {instance.name!r}")
        self.instances[instance.name] = instance
        self.active[instance.name] = True
        instance.backend_view = self.health_view

    def add_instance(self, instance: YodaInstance,
                     assign_all_vips: bool = True) -> None:
        """Bring a new instance into service without breaking any flow:
        installing policies first, then widening the L4 mappings."""
        self.adopt(instance)
        if assign_all_vips:
            for vip, policy in self.policies.items():
                instance.install_policy(policy, token=self.token)
                self.assignments[vip].append(instance.name)
                self.push_mapping(vip)
        self.metrics.counter("instances_added").inc()
        self.persist()

    def add_spare(self, instance: YodaInstance) -> None:
        """Register a provisioned-but-idle instance for the autoscaler."""
        self.spares.append(instance)
        instance.backend_view = self.health_view
        if self.ha is not None:
            self.ha.registry.add_spare(instance)

    def remove_instance(self, name: str) -> None:
        """Gracefully drain an instance.  Its in-flight flows migrate to
        the remaining instances through TCPStore -- no connection breaks
        (this is Problem 2 of Section 2.3 solved)."""
        if name not in self.instances:
            raise ControllerError(f"unknown instance {name!r}")
        self._retire(name)
        self._forget_instance(name)
        self.persist()

    def _retire(self, name: str) -> List[str]:
        """Take an instance out of service: inactive, out of every
        assignment, and every VIP it served re-pushed without it.
        Returns those VIPs."""
        self.active[name] = False
        vips = [vip for vip, assigned in self.assignments.items()
                if name in assigned]
        for vip in vips:
            self.assignments[vip].remove(name)
            self.push_mapping(vip)
        self.metrics.counter("instances_removed").inc()
        return vips

    def _forget_instance(self, name: str) -> None:
        """Drop every controller-side trace of an instance that left the
        deployment.  Leaving ghost entries behind (the pre-HA behaviour)
        both distorted the monitor's health view and made a later re-add
        of the same instance -- the autoscaler's drain-to-spare round trip
        -- fail as a duplicate."""
        self.instances.pop(name, None)
        self.active.pop(name, None)
        self.instance_health.forget(name)

    def _serving(self, name: str, draining) -> bool:
        """The serving rule: active, not draining, and up per the monitor."""
        return (bool(self.active.get(name)) and name not in draining
                and self.instance_health.is_healthy(name))

    def live_instance_names(self, vip: Optional[str] = None) -> List[str]:
        """Serving instances, in ``instances`` order (mapping order feeds
        the hash ring); only those assigned ``vip`` when one is given."""
        names = self.assignments.get(vip, self.instances) if vip \
            else self.instances
        draining = self.draining
        return [n for n in names if self._serving(n, draining)]

    # -------------------------------------------------------------- draining --
    @property
    def draining(self) -> Set[str]:
        """Instances with an unfinished drain (the coordinator's record)."""
        return {name for name, st in self.drainer.drains.items()
                if not st.done}

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
        self.instances[name].start_drain(token=self.token)
        status = self.drainer.start(
            name, DRAIN_DEADLINE if deadline is None else deadline,
            to_spare=to_spare,
        )
        self.metrics.counter("drains_started").inc()
        if OBS.enabled:
            OBS.flight("controller", "drain_start",
                       f"{name} flows={status.flows_at_start} "
                       f"deadline={status.deadline_at:.3f}")
        self._remap(name)
        self.persist()
        return status

    def _finish_drain(self, status: DrainStatus, crashed: bool = False) -> None:
        """DrainCoordinator callback: the instance emptied, timed out, or
        crashed mid-drain."""
        name = status.name
        instance = self.instances[name]
        vips = self._retire(name)
        if not crashed:
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
            if status.to_spare:
                instance.draining = False
                self.spares.append(instance)
        self.persist()

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
        names = instance_names or self.live_instance_names()
        if not names:
            raise ControllerError("no live instances to assign the VIP to")
        self.assignments[vip] = list(names)
        for name in names:
            self.instances[name].install_policy(policy, token=self.token)
        self.l4lb.register_vip(vip, token=self.token)
        self.push_mapping(vip)
        self.metrics.counter("vips_added").inc()
        if self.ha is not None:
            self.ha.registry.add_service(policy, backends, instance_names)
        self.persist()

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
        if self.ha is not None:
            self.ha.registry.remove_service(vip)
        self.persist()

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
        if self.ha is not None:
            self.ha.registry.update_service(policy)

    def _remap(self, name: str) -> None:
        """Re-push every VIP ``name`` is assigned to."""
        for vip, assigned in self.assignments.items():
            if name in assigned:
                self.push_mapping(vip)

    def push_mapping(self, vip: str) -> None:
        assigned = self.assignments.get(vip, [])
        draining = self.draining
        ips = [self.instances[n].ip for n in assigned
               if self._serving(n, draining)]
        # draining instances leave the hash ring (no new SYNs) but stay
        # known to the muxes so pinned/SNAT-owned flows still reach them
        draining_ips = [self.instances[n].ip for n in assigned
                        if n in draining and self._serving(n, ())]
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

    def guarded(self, where: str, step: Callable[[], None]) -> None:
        """Run one periodic control pass (``where`` names it: the monitor,
        the autoscaler) behind the control plane's one boundary.

        - leadership: a replica that is not the acting leader observes
          nothing and mutates nothing (the data plane must be statically
          stable while leaderless, and doubly-probed under a duel);
        - containment: a raising probe, breaker callback or push must not
          propagate out of the periodic task -- that would silently kill
          the loop forever.  Fencing rejections demote this replica;
          anything else is counted, flight-recorded as ``<where>_error``,
          and the next round proceeds.
        """
        if not self.acting():
            return
        try:
            step()
        except StaleLeaderEpoch as exc:
            self.metrics.counter("pushes_fenced").inc()
            if OBS.enabled:
                OBS.flight("controller", "fenced", str(exc))
            if self.ha is not None:
                self.ha.fenced(exc)
        except Exception as exc:  # noqa: BLE001 - the containment boundary
            self.metrics.counter("monitor_tick_errors").inc()
            if OBS.enabled:
                OBS.flight("controller", f"{where}_error",
                           f"{type(exc).__name__}: {exc}")

    def _monitor_tick(self) -> None:
        self.guarded("monitor", self._monitor_pass)

    def _monitor_pass(self) -> None:
        # YODA instances: a verdict change re-pushes every VIP they serve
        health = self.instance_health
        for name, instance in self.instances.items():
            was = health.is_healthy(name)
            up = health.observe(name, self._probe(instance.host))
            if up == was:
                continue
            if not up:
                self.metrics.counter("instance_failures_detected").inc()
                if OBS.enabled:
                    OBS.flight("controller", "instance_down",
                               f"{name} removed from mappings")
            elif OBS.enabled:
                OBS.flight("controller", "instance_up",
                           f"{name} readmitted to mappings")
            self._remap(name)
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
            self.monitor_store(self.kv_cluster)
        self.region.monitor(self)
        # traffic statistics from the instances
        for name, instance in self.instances.items():
            if health.is_healthy(name):
                for vip, count in instance.read_and_reset_traffic().items():
                    self.traffic_stats[vip] = self.traffic_stats.get(vip, 0) + count

    def monitor_store(self, cluster: MemcachedCluster) -> None:
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

    # -------------------------------------------------------- store membership --
    def on_kv_membership(self, event: str, name: str) -> None:
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
