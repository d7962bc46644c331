"""SNAT port-range management.

An L7 instance connecting out to a backend uses the VIP as its source
address; the backend's replies therefore arrive at the L4 LB, which must
know which L7 instance owns that (VIP, port).  Ananta solves this by
pre-allocating disjoint SNAT port ranges per (VIP, instance); this module
does the same.  Ranges are sticky: an instance keeps its range across
mapping updates so in-flight server connections keep resolving.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.errors import SnatExhausted
from repro.obs import OBS

SNAT_BASE_PORT = 1024
SNAT_RANGE_SIZE = 3000
SNAT_MAX_PORT = 65000


class SnatAllocator:
    """Per-VIP SNAT port ranges, one disjoint block per L7 instance."""

    def __init__(self, base: int = SNAT_BASE_PORT, range_size: int = SNAT_RANGE_SIZE):
        self.base = base
        self.range_size = range_size
        # vip -> instance_ip -> (lo, hi) inclusive-exclusive
        self._ranges: Dict[str, Dict[str, Tuple[int, int]]] = {}
        # vip -> instance_ip -> mapping version at FIRST allocation.  The
        # controller ensures ranges synchronously when it pushes a mapping,
        # while each mux adopts that mapping after an independent delay --
        # so a range born at a version newer than a mux's installed entry
        # is proof the push adding its owner is still in flight to that
        # mux (see L4Mux._route_stateful).  Sticky ranges keep the version
        # of their first birth: re-adopted instances look old on purpose,
        # preserving the historical pin-the-fallback behavior.
        self._alloc_versions: Dict[str, Dict[str, int]] = {}
        self.exhaustions = 0  # failed allocations, for dashboards/tests

    def ensure_range(self, vip: str, instance_ip: str,
                     version: int = 0) -> Tuple[int, int]:
        """Get (allocating if needed) the port range for an instance."""
        per_vip = self._ranges.setdefault(vip, {})
        if instance_ip in per_vip:
            return per_vip[instance_ip]
        used_los: Set[int] = {lo for lo, _ in per_vip.values()}
        lo = self.base
        while lo in used_los:
            lo += self.range_size
        hi = lo + self.range_size
        if hi > SNAT_MAX_PORT:
            self.exhaustions += 1
            if OBS.enabled:
                OBS.flight("snat", "exhausted",
                           f"VIP {vip}: no range left for {instance_ip} "
                           f"({len(per_vip)} allocated)")
            raise SnatExhausted(vip, instance_ip)
        per_vip[instance_ip] = (lo, hi)
        self._alloc_versions.setdefault(vip, {})[instance_ip] = version
        return (lo, hi)

    def allocated_after(self, vip: str, instance_ip: str, version: int) -> bool:
        """Was this instance's range first allocated by a mapping push
        NEWER than ``version``?  True means any mux whose entry is still
        at ``version`` simply has not seen the owner yet."""
        return self._alloc_versions.get(vip, {}).get(instance_ip, 0) > version

    def owner_of(self, vip: str, port: int) -> Optional[str]:
        """Which instance owns this SNAT port for this VIP, if any."""
        per_vip = self._ranges.get(vip)
        if not per_vip:
            return None
        for instance_ip, (lo, hi) in per_vip.items():
            if lo <= port < hi:
                return instance_ip
        return None

    def release(self, vip: str, instance_ip: str) -> None:
        """Drop an instance's range (only safe once its flows are gone)."""
        per_vip = self._ranges.get(vip)
        if per_vip:
            per_vip.pop(instance_ip, None)


DEFAULT_SNAT_RANGE = (40000, 41000)  # an instance built without an L4 LB


class SnatPorts:
    """The SNAT ports one L7 instance holds, per VIP: the instance half of
    the ranges above, and the one record of how a port is minted,
    reclaimed, released and audited.

    - **mint** (``alloc``): a cursor walks the instance's block, wrapping
      and skipping ports in use.  A block the allocator re-assigned (a
      drain released the old one; a re-adoption gets whatever is free)
      restarts it: a stale cursor would mint ports inside another
      instance's block, return traffic would route to that owner and both
      connects would wedge in SERVER_SYN_SENT.
    - **reclaim**: a full block asks the instance once to destroy the
      flows it already has closing (``reclaim()`` says whether there were
      any) and tries again before refusing with :class:`SnatExhausted`.
    - **release**: a port is returned when its flow leaves and when the
      flow switches backend; a forced drain that hands every flow off
      returns them all (``release_all``).
    - **freeze**: a crash returns nothing, so the recovered VM never
      reissues a port a migrated flow still occupies.
    - **audit** (``leaked``): ports held that no live flow owns.
    """

    def __init__(self, l4lb, ip: str, metrics,
                 reclaim: Callable[[], bool]):
        self.l4lb = l4lb
        self.ip = ip
        self.metrics = metrics
        self.reclaim = reclaim
        self._next: Dict[str, int] = {}
        self.in_use: Dict[str, Set[int]] = {}

    def alloc(self, vip: str) -> int:
        if self.l4lb is not None:
            lo, hi = self.l4lb.snat_range(vip, self.ip)
        else:
            lo, hi = DEFAULT_SNAT_RANGE
        in_use = self.in_use.setdefault(vip, set())
        for attempt in range(2):
            port = self._next.get(vip, lo)
            if not lo <= port < hi:
                port = lo  # the block was re-assigned
            for _ in range(hi - lo):
                candidate = port
                port = port + 1 if port + 1 < hi else lo
                if candidate not in in_use:
                    in_use.add(candidate)
                    self._next[vip] = port
                    return candidate
            if attempt or not self.reclaim():
                break
        self.metrics.counter("snat_exhaustions").inc()
        raise SnatExhausted(vip, self.ip)

    def release(self, vip: str, port: int) -> None:
        in_use = self.in_use.get(vip)
        if in_use is not None:
            in_use.discard(port)

    def release_all(self) -> None:
        for in_use in self.in_use.values():
            in_use.clear()

    def leaked(self, states: Iterable) -> Dict[str, Set[int]]:
        """Ports held but owned by none of ``states`` (the ``FlowState`` of
        every live flow), per VIP.  An invariant monitor calls this after
        a run settles: a port never released eventually starves the finite
        range of new server connections."""
        owned: Dict[str, Set[int]] = {}
        for state in states:
            if state.snat_port is not None:
                owned.setdefault(state.vip.ip, set()).add(state.snat_port)
        leaked: Dict[str, Set[int]] = {}
        for vip, in_use in self.in_use.items():
            extra = in_use - owned.get(vip, set())
            if extra:
                leaked[vip] = extra
        return leaked
