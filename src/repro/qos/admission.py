"""Token-bucket admission with priority-tiered shedding.

Everything here is a pure computation over the caller-supplied clock:
buckets refill lazily on access, no events are scheduled and no
randomness is drawn, so an admission controller that never refuses a
connection is invisible to the deterministic packet schedule.

Tier semantics: tier 0 is the highest priority.  A tier-k connection is
admitted only while the bucket's fill fraction is at or above
``tier_floors[k]`` -- so as offered load drains the bucket, the lowest
tiers are shed first and the remaining tokens are reserved for the
higher-priority traffic (the classic layered-bucket discipline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.qos.config import QosConfig
from repro.sim.bucket import TokenBucket


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one SYN-time admission check."""

    admitted: bool
    reason: str = "ok"  # "ok" | "tier" | "rate" | "concurrency" | "draining"
    tier: int = 0


_ADMIT_T0 = AdmissionDecision(admitted=True)


class AdmissionController:
    """Per-VIP token buckets + tier classification for one instance."""

    def __init__(self, config: QosConfig):
        self.config = config
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted = 0
        self.shed_by_reason: Dict[str, int] = {}

    def classify(self, client_ip: str) -> int:
        """Map a client IP to a priority tier (0 = highest)."""
        for prefix, tier in self.config.client_tiers:
            if client_ip.startswith(prefix):
                return tier
        return 0

    def _bucket(self, vip: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(vip)
        if bucket is None:
            bucket = self._buckets[vip] = TokenBucket(
                self.config.admission_rate, self.config.admission_burst, now)
        return bucket

    def admit(self, vip: str, client_ip: str, now: float) -> AdmissionDecision:
        if self.config.admission_rate is None:
            self.admitted += 1
            return _ADMIT_T0
        tier = self.classify(client_ip)
        bucket = self._bucket(vip, now)
        floors = self.config.tier_floors
        floor = floors[min(tier, len(floors) - 1)]
        if floor > 0.0 and bucket.level(now) < floor:
            self.shed_by_reason["tier"] = self.shed_by_reason.get("tier", 0) + 1
            return AdmissionDecision(admitted=False, reason="tier", tier=tier)
        if not bucket.try_take(now):
            self.shed_by_reason["rate"] = self.shed_by_reason.get("rate", 0) + 1
            return AdmissionDecision(admitted=False, reason="rate", tier=tier)
        self.admitted += 1
        return AdmissionDecision(admitted=True, tier=tier)

    def bucket_level(self, vip: str, now: float) -> Optional[float]:
        bucket = self._buckets.get(vip)
        return None if bucket is None else bucket.level(now)
