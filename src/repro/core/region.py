"""Region failover (DESIGN section 9): a standby site the controller
promotes when the whole primary region dies.

The paper's instance-failover mechanism (Section 4.4), one level up: the
flow store is replicated to a second site (``kvstore.sitesync``), and
when every primary instance is confirmed down the controller adopts the
standby site's store, L4 LB and instances and re-homes every VIP there.
:class:`RegionPlane` is that knowledge, kept out of the controller: the
registered standby, the monitoring of its store, the one-shot promotion
and its record (``failed_over``, ``failover_at``,
``failover_records_lost``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.instance import YodaInstance
from repro.errors import ControllerError
from repro.kvstore.client import MemcachedCluster
from repro.kvstore.sitesync import SYNC_INTERVAL, SiteReplicator
from repro.l4lb.service import L4LoadBalancer
from repro.obs import OBS


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
    asynchronously replicated copies until :meth:`RegionPlane.fail_over`
    promotes it.
    """

    site: str
    l4lb: L4LoadBalancer
    instances: List[YodaInstance]
    kv_cluster: Optional[MemcachedCluster] = None
    replicator: Optional[SiteReplicator] = None


class RegionPlane:
    """One controller's region plane.  Every controller has one; it stays
    inert until a standby region is registered."""

    def __init__(self) -> None:
        self.standby: Optional[StandbyRegion] = None
        self.failed_over = False
        self.failover_at: Optional[float] = None
        self.failover_records_lost = 0

    def register(self, ctl, region: StandbyRegion) -> None:
        """Arm a built-but-idle secondary region for automatic failover."""
        if self.standby is not None:
            raise ControllerError("a standby region is already registered")
        for instance in region.instances:
            if instance.name in ctl.instances:
                raise ControllerError(
                    f"standby instance {instance.name!r} collides with a "
                    f"primary instance")
            instance.backend_view = ctl.health_view
        self.standby = region

    def receivers(self) -> list:
        """The standby's control-plane receivers (its L4 LB and instances)."""
        if self.standby is None:
            return []
        return [self.standby.l4lb, *self.standby.instances]

    def monitor(self, ctl) -> None:
        """The monitor pass's region step.  The standby's store is probed
        too (pre-failover it is not ``ctl.kv_cluster`` yet): WAN-partition
        timeouts make the relay's client mark secondary servers dead, and
        only the monitor re-admits them once their quarantine expires.

        Failover fires when every primary instance is confirmed down (per
        the same hysteresis that governs single-instance removal).  The
        probe consults ``host.failed`` directly, so a WAN partition --
        primary alive but unreachable from afar -- never looks like region
        death: that is the split-brain guard (no second region ever serves
        a VIP while the first still owns it)."""
        standby = None if self.failed_over else self.standby
        if standby is None:
            return
        if standby.kv_cluster is not None:
            ctl.monitor_store(standby.kv_cluster)
        health = ctl.instance_health
        if ctl.instances and not any(health.is_healthy(n)
                                     for n in ctl.instances):
            self.fail_over(ctl)

    def fail_over(self, ctl) -> None:
        """The primary region is gone: promote the secondary and re-home
        every VIP there.

        The order mirrors ``add_vip`` exactly: promote the store first
        (recovery reads must see the replicated records, not race the
        promotion), install rules on the standby instances, then re-anchor
        each VIP on the standby router and push mappings -- so no packet
        reaches an instance without rules.
        """
        standby = self.standby
        dead_ips = [inst.ip for name, inst in ctl.instances.items()
                    if not ctl.instance_health.is_healthy(name)]
        primary_l4lb = ctl.l4lb
        # 1-2. promote the secondary store -- cross-site shipping stops, the
        # unshipped backlog is the failover's data loss -- and adopt the site
        self.adopt(ctl)
        self.failover_at = ctl.loop.now()
        names = [inst.name for inst in standby.instances]
        for vip, policy in ctl.policies.items():
            for instance in standby.instances:
                instance.install_policy(policy, token=ctl.token)
            ctl.assignments[vip] = list(names)
            # 3. VIP re-anchoring: claiming the VIP onto the standby
            # router re-points the fabric route, and deliveries re-check
            # routes, so even packets already in flight land on the new
            # region
            ctl.l4lb.register_vip(vip, token=ctl.token)
            # 4. mapping push doubles as SNAT-range re-derivation: the
            # standby allocator mints a fresh port block per (VIP,
            # instance) as the mapping installs
            ctl.push_mapping(vip)
        # 5. flush the dead region's mux pins -- harmless when the primary
        # router died with its site, load-bearing for partial-site
        # failures where surviving muxes would keep steering pinned flows
        # at dead instances
        for ip in dead_ips:
            primary_l4lb.flush_instance(ip, token=ctl.token)
        ctl.metrics.counter("region_failovers").inc()
        ctl.metrics.gauge("failover_records_lost").set(
            float(self.failover_records_lost))
        if OBS.enabled:
            OBS.flight("controller", "region_failover",
                       f"promoted {standby.site}: {len(names)} instances "
                       f"take over, {self.failover_records_lost} unshipped "
                       f"records lost")
        ctl.persist()

    def adopt(self, ctl) -> None:
        """Make the standby region ``ctl``'s site: promote its store
        (idempotent, and the replicator is shared, so a successor adopting
        a journaled failover reads the same loss), then take its store
        cluster, L4 LB and instances.  The one record of a promotion, for
        a detected failover and a journaled one."""
        standby = self.standby
        if standby.replicator is not None:
            self.failover_records_lost = standby.replicator.promote()
        if standby.kv_cluster is not None:
            ctl.kv_cluster = standby.kv_cluster
            standby.kv_cluster.add_listener(ctl.on_kv_membership)
        ctl.l4lb = standby.l4lb
        for instance in standby.instances:
            if instance.name not in ctl.instances:
                ctl.adopt(instance)
        self.failed_over = True
