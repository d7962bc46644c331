"""Configuration for the overload-control plane.

:class:`QosConfig` is pure data sizing the admission buckets and the
shedding tiers; the circuit breakers and the concurrency ceiling take
their thresholds from constants of their own modules.  The defaults are
**armed but neutral**: every mechanism is constructed and
consulted on the hot path, yet none of them can trip under a workload
that stays inside capacity -- which is what lets the golden-trace suite
assert bit-identical packet schedules with qos constructed but never
triggered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class QosConfig:
    """Knobs for admission and shedding."""

    # -- per-VIP token-bucket admission (new connections per second, per
    # instance).  None disables rate-based shedding entirely: every SYN
    # is admitted without drawing a token.
    admission_rate: Optional[float] = None
    admission_burst: float = 50.0
    # Priority tiers, lowest index = highest priority.  ``tier_floors[k]``
    # is the bucket fill fraction below which tier k is shed; tier 0's
    # floor should stay 0.0 so top-priority traffic is only refused when
    # the bucket is truly empty.  Lower tiers are shed first because their
    # floors are higher -- the bucket drains *through* them.
    tier_floors: Tuple[float, ...] = (0.0, 0.35, 0.7)
    # Client IP prefix -> tier assignments, e.g. (("172.16.9.", 2),).
    # First matching prefix wins; unmatched clients are tier 0.
    client_tiers: Tuple[Tuple[str, int], ...] = ()
