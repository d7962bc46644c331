"""One L4 mux: hashing, flow-table affinity, forwarding.

Each mux holds its own versioned copy of every VIP's instance list --
that independence is load-bearing: the paper's Eq. 4-5 constraints exist
precisely because "the VIP-to-YODA-instance mapping has to be changed on
multiple L4 LB instances, which is not atomic".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.kvstore.hashring import HashRing
from repro.l4lb.compact import CompactDispatchTable
from repro.l4lb.snat import SNAT_BASE_PORT
from repro.net.addresses import Endpoint
from repro.net.packet import ACK, SYN, Packet
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.l4lb.service import L4LoadBalancer


def five_tuple(src: Endpoint, dst: Endpoint) -> str:
    """``src>dst``: the 5-tuple text the router hashes for ECMP and every
    mux keys its flow table by."""
    return f"{src.text}>{dst.text}"


@dataclass(slots=True)
class _FlowEntry:
    instance_ip: str
    last_used: float
    # the flow-table key itself: the router memoises its ECMP pick under
    # this same string, so a pinned flow keeps one copy of its 5-tuple
    key: str


class _VipEntry:
    """A mux's view of one VIP: live instances + consistent-hash ring.

    ``draining`` instances are excluded from the ring (no new SYN hashes
    onto them) but stay known, so return traffic on their SNAT ranges and
    pinned established flows keep reaching them until their drain ends.
    """

    def __init__(self, vip: str, instances: List[str], version: int,
                 draining: List[str] = (), epoch: int = -1):
        self.vip = vip
        self.instances = list(instances)
        self.draining = set(draining)
        self.version = version
        # lease epoch of the controller that pushed this entry (-1 when
        # the control plane is unreplicated); entries never regress epochs
        self.epoch = epoch
        self.ring = HashRing(instances, vnodes=50)
        # compact stateless snapshot riding this mapping push, plus the
        # one it replaced -- the previous generation is what lets the
        # stateless path lazily pin established flows to a draining owner
        self.compact: Optional[CompactDispatchTable] = None
        self.prev_compact: Optional[CompactDispatchTable] = None


class L4Mux:
    """One software mux replica."""

    FLOW_IDLE_TIMEOUT = 60.0

    def __init__(self, lb: "L4LoadBalancer", mux_id: int):
        self.lb = lb
        self.name = f"mux-{mux_id}"
        self.vips: Dict[str, _VipEntry] = {}
        self.flow_table: Dict[str, _FlowEntry] = {}
        self.forwarded = 0
        self.dropped = 0

    # -- control plane ------------------------------------------------------
    def apply_mapping(self, vip: str, instances: List[str], version: int,
                      draining: List[str] = (), epoch: int = -1,
                      compact: Optional[CompactDispatchTable] = None) -> None:
        """Install a new instance list for a VIP (idempotent, versioned).

        An update carrying a lease epoch older than the installed entry's
        is dropped: mapping pushes propagate with independent per-mux
        delays, so a fenced-out controller's last push can still be in
        flight when its successor's lands.

        ``compact`` is the frozen stateless snapshot built for exactly
        this version.  The swap is a single reference assignment inside
        the same entry install -- all-or-nothing with respect to traffic
        interleaved between packets, and the version gate above means a
        stale snapshot can never replace a newer one."""
        current = self.vips.get(vip)
        if current is not None and (current.version >= version
                                    or current.epoch > epoch):
            return
        entry = _VipEntry(vip, instances, version, draining, epoch)
        entry.compact = compact
        if current is not None:
            entry.prev_compact = current.compact
        self.vips[vip] = entry

    def _unpin(self, keys: List[str]) -> None:
        """Every removal of flow-table pins goes through here, so the
        router's per-flow ECMP memo never outlives the pins it serves."""
        for k in keys:
            del self.flow_table[k]
        self.lb.forget_flows(keys)

    def remove_vip(self, vip: str) -> None:
        self.vips.pop(vip, None)
        self._unpin([k for k in self.flow_table if f">{vip}:" in k])

    def flush_instance(self, instance_ip: str) -> int:
        """Remove flow-table entries pinned to an instance.

        The YODA controller calls this when it removes a failed instance
        "from all the mappings at L4 LB" -- it is what lets retransmitted
        packets of existing flows reach a live instance.  The HAProxy
        deployment has no such step, so its established flows stay pinned
        to the dead instance.
        """
        stale = [k for k, e in self.flow_table.items() if e.instance_ip == instance_ip]
        self._unpin(stale)
        if OBS.enabled:
            OBS.flight(self.name, "flush",
                       f"{len(stale)} flow-table entries pinned to "
                       f"{instance_ip} removed")
        return len(stale)

    def expire_flows(self, now: float) -> int:
        stale = [
            k for k, e in self.flow_table.items()
            if now - e.last_used > self.FLOW_IDLE_TIMEOUT
        ]
        self._unpin(stale)
        return len(stale)

    def release_flow(self, flow_key: str) -> bool:
        """Drop one flow-table pin immediately.

        Used when the pinned instance refuses the flow (SNAT exhaustion):
        without this the dead 5-tuple stays pinned for the full idle
        timeout, steering the refused client's in-flight packets -- and
        any retry on the same 5-tuple -- at an instance that already said
        no."""
        if flow_key not in self.flow_table:
            return False
        self._unpin([flow_key])
        return True

    # -- data plane -----------------------------------------------------------
    def process(self, pkt: Packet) -> None:
        vip = pkt.dst.ip
        entry = self.vips.get(vip)
        if entry is None or not entry.instances:
            self.dropped += 1
            if OBS.enabled:
                OBS.flight(self.name, "drop",
                           f"{pkt.src}>{pkt.dst}: no instances for VIP {vip}")
            return
        now = self.lb.loop.now()
        flow_key = five_tuple(pkt.src, pkt.dst)
        is_new_flow = pkt.flags & (SYN | ACK) == SYN
        if self.lb.stateless and entry.compact is not None:
            instance_ip = self._route_stateless(entry, flow_key, pkt,
                                                is_new_flow, now)
        else:
            instance_ip = self._route_stateful(entry, flow_key, pkt,
                                               is_new_flow, now)
        if not self.lb.forward_to_instance(instance_ip, pkt):
            # the mapped instance's host is gone from the fabric (detached
            # by scale-in while this mux still maps it)
            self.dropped += 1
            if OBS.enabled:
                OBS.flight(self.name, "drop",
                           f"{flow_key}: instance {instance_ip} is detached")
            return
        self.forwarded += 1
        if OBS.enabled and is_new_flow:
            OBS.flight(self.name, "route", f"{flow_key} -> {instance_ip}")
            ctx = pkt.meta.get("obs_ctx")
            if ctx is not None:
                OBS.tracer.event("l4.route", self.name, ctx=ctx,
                                 attrs={"instance": instance_ip})

    def _route_stateful(self, entry: _VipEntry, flow_key: str, pkt: Packet,
                        is_new_flow: bool, now: float) -> str:
        """Default mode: every flow gets a dict pin.  A cache hit now
        returns without churning a fresh ``_FlowEntry`` -- the entry's
        content could not change, so the per-packet allocation was pure
        waste."""
        if not is_new_flow:
            cached = self.flow_table.get(flow_key)
            if cached is not None:
                cached.last_used = now
                return cached.instance_ip
        # Return traffic from a backend lands on the SNAT port range
        # of the owning instance.
        owner = self.lb.snat.owner_of(entry.vip, pkt.dst.port)
        if owner is not None and (owner in entry.instances
                                  or owner in entry.draining):
            instance_ip = owner
        else:
            instance_ip = entry.ring.lookup(flow_key)
            if owner is not None and self.lb.snat.allocated_after(
                    entry.vip, owner, entry.version):
                # Return traffic for a SNAT owner whose range was born in
                # a mapping push NEWER than this mux's entry: the push
                # adding the owner (an autoscaler-adopted spare, say) is
                # still propagating here.  The ring is computed from the
                # STALE membership, so its guess is guaranteed wrong --
                # forward straight to the owner instead, and never pin
                # the route, so the race can't freeze a wrong entry in
                # the flow table.  A dead owner's range is OLDER than the
                # entry, so that path still pins the recovery target
                # exactly as it always has.
                return owner
        self.flow_table[flow_key] = _FlowEntry(instance_ip, now, flow_key)
        return instance_ip

    def _route_stateless(self, entry: _VipEntry, flow_key: str, pkt: Packet,
                         is_new_flow: bool, now: float) -> str:
        """Compact mode: dispatch from the frozen snapshot, no per-flow
        writes on the common path.  The only pins ever materialized are
        for flows whose current-table target moved off a still-draining
        instance -- the migration case where statelessness alone would
        tear an established flow away from its owner mid-drain."""
        table = entry.compact
        if not is_new_flow:
            if self.flow_table:
                cached = self.flow_table.get(flow_key)
                if cached is not None:
                    cached.last_used = now
                    return cached.instance_ip
            # SNAT ranges all live at >= SNAT_BASE_PORT, so ordinary client
            # traffic (dst port 80/443) skips the owner scan entirely
            if pkt.dst.port >= SNAT_BASE_PORT:
                owner = self.lb.snat.owner_of(entry.vip, pkt.dst.port)
                if owner is not None and (owner in entry.instances
                                          or owner in entry.draining):
                    return owner
            target = table.lookup(flow_key)
            if entry.draining and entry.prev_compact is not None:
                prev = entry.prev_compact.lookup(flow_key)
                if prev != target and prev in entry.draining:
                    self.flow_table[flow_key] = _FlowEntry(prev, now, flow_key)
                    return prev
            return target
        # fresh SYN: pure O(1) table read, zero state written
        return table.lookup(flow_key)
