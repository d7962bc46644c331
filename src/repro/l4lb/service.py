"""The L4 LB service: router + muxes + mapping propagation.

The router owns every VIP in the network fabric and ECMP-spreads flows
across the muxes (hash of the 5-tuple, as routers do).  Mapping updates
from the controller are applied to each mux after an independent
propagation delay -- the non-atomicity at the heart of the paper's
transient-overload constraints.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NetworkError
from repro.l4lb.compact import CompactDispatchTable, StatelessConfig
from repro.l4lb.mux import L4Mux, five_tuple
from repro.l4lb.snat import SnatAllocator
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.events import EventLoop
from repro.sim.process import PeriodicTask
from repro.sim.random import SeededRng, stable_hash32


class L4LoadBalancer:
    """Ananta-like L4 LB-as-a-service.

    Args:
        num_muxes: software mux replicas; each holds its own mapping copy.
        mapping_propagation: max delay (seconds) for an update to reach any
            single mux; each mux draws uniformly in [0, this].
        router_ip: address of the internal router host.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        rng: SeededRng,
        num_muxes: int = 4,
        mapping_propagation: float = 0.2,
        router_ip: str = "10.255.0.1",
        router_name: str = "l4-router",
        site: str = "dc",
        stateless: Optional[StatelessConfig] = None,
    ):
        if num_muxes < 1:
            raise NetworkError("need at least one mux")
        self.loop = loop
        self.network = network
        self.rng = rng.fork("l4lb")
        self.mapping_propagation = mapping_propagation
        # compact stateless fast path: None = machinery absent (historic
        # behaviour); StatelessConfig(enabled=False) = armed (tables are
        # built and ride every push, dispatch unchanged -- the golden
        # pins hold); enabled=True = muxes dispatch from the snapshots
        self.stateless = stateless
        self.stateless_enabled = stateless is not None and stateless.enabled
        self._compact: Dict[str, CompactDispatchTable] = {}
        self.router = network.attach(Host(router_name, [router_ip], site=site))
        self.router.set_handler(self._on_packet)
        self.muxes: List[L4Mux] = [L4Mux(self, i) for i in range(num_muxes)]
        # the router's ECMP pick, memoised per pinned flow: it lives exactly
        # as long as the pin in the picked mux's flow table (see
        # forget_flows), so it needs no size bound of its own, and it is
        # keyed by the pin's own key string, so the two share one copy
        self._ecmp_memo: Dict[str, int] = {}
        self.snat = SnatAllocator()
        self._versions: Dict[str, int] = {}
        self._authoritative: Dict[str, List[str]] = {}
        # receiver-side stale-leader rejection (core.leader.FenceGate),
        # attached by YodaService when the control plane is replicated.
        # None in the single-controller configuration: every control call
        # arrives with token=None and is accepted unchecked, exactly as
        # before controller HA existed.
        self.fence = None
        self._gc = PeriodicTask(loop, 30.0, self._expire_flows)
        self._gc.start()

    def _admit(self, token, kind: str) -> None:
        if self.fence is not None:
            self.fence.admit(token, kind, self.loop.now())

    # -- control plane API (used by the YODA controller) ----------------------
    def register_vip(self, vip: str, token=None) -> None:
        """Make the fabric route a VIP's traffic to this service.
        Idempotent, so a newly elected controller can re-anchor every VIP
        it inherited without tracking which were already claimed."""
        self._admit(token, "register_vip")
        self.network.claim_ip(self.router, vip)
        self._versions.setdefault(vip, 0)
        self._authoritative.setdefault(vip, [])

    def unregister_vip(self, vip: str, token=None) -> None:
        self._admit(token, "unregister_vip")
        self._versions.pop(vip, None)
        self._authoritative.pop(vip, None)
        self._compact.pop(vip, None)
        for mux in self.muxes:
            mux.remove_vip(vip)

    def vips(self) -> List[str]:
        return list(self._authoritative)

    def mapping(self, vip: str) -> List[str]:
        """Authoritative (controller-side) instance list for a VIP."""
        return list(self._authoritative.get(vip, []))

    def update_mapping(
        self,
        vip: str,
        instance_ips: List[str],
        flush_removed: bool = True,
        immediate: bool = False,
        draining_ips: Optional[List[str]] = None,
        token=None,
    ) -> None:
        """Install a new VIP -> instances mapping.

        Args:
            instance_ips: L7 LB instances that should receive this VIP.
            flush_removed: also flush flow-table entries pinned to
                instances that left the mapping (YODA does this; a plain
                health-checked HAProxy deployment does not, which is why
                its established flows break silently).
            immediate: apply to all muxes now (test convenience) instead
                of with per-mux propagation delays.
            draining_ips: instances leaving gracefully -- dropped from the
                hash ring (no new SYNs) but neither flushed nor forgotten,
                so their established flows finish in place.
        """
        self._admit(token, "update_mapping")
        if vip not in self._versions:
            raise NetworkError(f"VIP {vip} is not registered")
        draining = list(draining_ips or [])
        previous = set(self._authoritative.get(vip, []))
        removed = previous - set(instance_ips) - set(draining)
        self._authoritative[vip] = list(instance_ips)
        self._versions[vip] += 1
        version = self._versions[vip]
        # the lease epoch rides into each mux's entry: a delayed in-flight
        # push from a fenced-out leader can never regress an entry a newer
        # leader already installed, even across independent mux copies
        epoch = self.fence.epoch if self.fence is not None else -1
        for ip in instance_ips:
            self.snat.ensure_range(vip, ip, version)
        compact = self._build_compact(vip, instance_ips, version)
        for mux in self.muxes:
            delay = 0.0 if immediate else self.rng.uniform(0.0, self.mapping_propagation)
            self.loop.call_later(
                delay, self._apply_to_mux, mux, vip, list(instance_ips), version,
                sorted(removed) if flush_removed else [], draining, epoch,
                compact,
            )

    def _build_compact(self, vip: str, instance_ips: List[str],
                       version: int) -> Optional[CompactDispatchTable]:
        """Freeze a compact snapshot for this mapping version.  Pure
        stable-hash computation, no events and no sim-RNG draws -- an
        armed-but-disabled config stays bit-identical on the pinned
        golden traces."""
        if self.stateless is None:
            return None
        if not instance_ips:
            self._compact.pop(vip, None)
            return None
        snapshot = CompactDispatchTable(vip, version, instance_ips)
        self._compact[vip] = snapshot
        return snapshot

    def _apply_to_mux(
        self, mux: L4Mux, vip: str, instances: List[str], version: int,
        flush: List[str], draining: Optional[List[str]] = None,
        epoch: int = -1, compact: Optional[CompactDispatchTable] = None,
    ) -> None:
        if vip not in self._versions:
            return  # VIP was unregistered while this update was in flight
        mux.apply_mapping(vip, instances, version, draining or [], epoch, compact)
        for instance_ip in flush:
            mux.flush_instance(instance_ip)

    def flush_instance(self, instance_ip: str, token=None) -> int:
        """Flush every mux's flow-table pins for one instance (the forced
        half of a drain: surviving flows must re-hash elsewhere)."""
        self._admit(token, "flush_instance")
        return sum(mux.flush_instance(instance_ip) for mux in self.muxes)

    def compact_version(self, vip: str) -> Optional[int]:
        """Version of the latest compact snapshot built for a VIP (None
        when the stateless machinery is absent or nothing was pushed)."""
        snapshot = self._compact.get(vip)
        return snapshot.version if snapshot is not None else None

    def compact_table(self, vip: str) -> Optional[CompactDispatchTable]:
        return self._compact.get(vip)

    def release_flow(self, client, vip) -> bool:
        """Release the mux flow-table pin for one refused flow, now.

        Data-plane triggered (the owning instance calls this when it
        refuses a flow on SNAT exhaustion), so no fence token: it tears
        down the caller's own pin rather than reconfiguring anything.
        The owning mux is found by the same ECMP hash the router used."""
        flow_key = f"{client}>{vip}"  # endpoints or their "ip:port" text
        if self.muxes[self._ecmp_pick(flow_key)].release_flow(flow_key):
            return True
        # a pin can sit on another mux only if the mux count changed
        # mid-run; sweep the rest so the release is unconditional
        return any(m.release_flow(flow_key) for m in self.muxes)

    def snat_range(self, vip: str, instance_ip: str):
        """The (lo, hi) SNAT port block an instance may use for a VIP."""
        return self.snat.ensure_range(vip, instance_ip)

    # -- data plane -------------------------------------------------------------
    def _ecmp_pick(self, flow_key: str) -> int:
        """The router's mux choice for a flow: hash of the 5-tuple, as
        routers do."""
        return stable_hash32(flow_key, salt="ecmp") % len(self.muxes)

    def _on_packet(self, pkt: Packet) -> None:
        """Router: ECMP-spread the flow across muxes."""
        flow_key = five_tuple(pkt.src, pkt.dst)
        idx = self._ecmp_memo.get(flow_key)
        if idx is not None:
            self.muxes[idx].process(pkt)
            return
        idx = self._ecmp_pick(flow_key)
        mux = self.muxes[idx]
        mux.process(pkt)
        pin = mux.flow_table.get(flow_key)
        if pin is not None:
            # under the pin's own key string, not this packet's copy of it
            self._ecmp_memo[pin.key] = idx

    def forget_flows(self, flow_keys: List[str]) -> None:
        """A mux dropped these pins: drop their memoised ECMP picks."""
        memo = self._ecmp_memo
        for flow_key in flow_keys:
            memo.pop(flow_key, None)

    def forward_to_instance(self, instance_ip: str, pkt: Packet) -> bool:
        """IP-in-IP encapsulation equivalent: deliver the untouched packet
        (dst still the VIP) to the chosen L7 instance's host.  False when
        no attached host answers for ``instance_ip``."""
        host = self.network.host_for_ip(instance_ip)
        if host is None:
            return False
        # one intra-DC hop mux -> instance
        loop = self.loop
        loop.call_at(loop.now() + 0.00025, host.deliver, pkt)
        return True

    def _expire_flows(self) -> None:
        now = self.loop.now()
        for mux in self.muxes:
            mux.expire_flows(now)
