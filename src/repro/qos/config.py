"""Configuration for the overload-control plane.

:class:`QosConfig` is pure data sizing the qos mechanisms (admission
buckets, shedding tiers, circuit breakers, AIMD concurrency limits).  The
defaults are **armed but neutral**: every mechanism is constructed and
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
    """Knobs for admission, shedding, breakers and backpressure."""

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

    # -- per-backend circuit breakers
    breaker_failure_threshold: int = 5  # consecutive failures to open
    breaker_open_duration: float = 1.0  # seconds open before probing
    breaker_half_open_probes: int = 2  # probe successes needed to close

    # -- adaptive concurrency (AIMD on observed TCPStore latency):
    # bounds connection-phase flows in flight, shrinking multiplicatively
    # when storage ops run slow or fail and growing additively while they
    # behave.  latency_target None disables the latency-driven decrease,
    # leaving only the (generous) static ceiling.
    limiter_initial: int = 512
    limiter_min: int = 8
    limiter_latency_target: Optional[float] = None
    limiter_backoff: float = 0.5  # multiplicative decrease factor
    limiter_increase: float = 1.0  # additive increase per success window
    limiter_cooldown: float = 0.5  # min seconds between decreases
