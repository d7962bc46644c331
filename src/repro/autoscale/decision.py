"""Pure scale-decision logic: hysteresis, cooldowns, step limits.

The engine is deliberately free of simulator state -- it consumes a
:class:`~repro.autoscale.signals.SignalSnapshot` and returns a
:class:`ScaleDecision`; the actuation (and every side effect) lives in
:mod:`repro.autoscale.engine`.  That split is what lets the Fig. 13
CPU-watermark policy ride the same code path as the full elastic
policy: with every safety rail at its default (no cooldowns, no step
limit, CPU as the only signal) the engine is the paper's watermark rule.

State machine (per the auto-scaling-group pattern)::

            pressure > band          idle < band
    steady ----------------> out    ----------------> in
      ^                      |         |
      |   cooldown_out       |         |  cooldown_in
      +----------------------+---------+

A decision inside a cooldown window is *refused*, not queued: queued
intent goes stale faster than the signals that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.autoscale.signals import SignalSnapshot


@dataclass
class ElasticPolicy:
    """Knobs for the closed loop.  The defaults are the paper's Fig. 13
    CPU-watermark rule: every rail below is off until set."""

    # hysteresis band on the primary (CPU) signal
    high_watermark: float = 0.70  # add capacity above this average CPU
    low_watermark: float = 0.25  # release capacity below this
    target: float = 0.55  # size so average CPU lands here
    check_interval: float = 5.0
    # secondary pressure signals: queues build before CPU does, so the
    # qos plane's signals can trip scale-out while CPU still looks fine.
    # None disarms a signal (Fig. 13 uses CPU only).
    admission_pressure_high: Optional[float] = None  # 1 - bucket fraction
    # safety rails
    cooldown_out: float = 0.0  # seconds between scale-out events
    cooldown_in: float = 0.0  # seconds after ANY event before a scale-in
    step_out: int = 0  # max instances added per decision (0 = unbounded)
    step_in: int = 1  # max instances drained per decision
    min_instances: int = 1
    max_instances: int = 0  # 0 = unbounded
    scale_down: bool = False
    # scale in by draining (make-before-break) instead of instant removal
    drain: bool = True
    drain_deadline: Optional[float] = None  # None = controller default
    # -- store-replica elasticity -----------------------------------------
    scale_stores: bool = False
    instances_per_store: int = 3  # target ceil(live / this) store servers
    min_stores: int = 2  # never below the replication factor
    max_stores: int = 0  # 0 = unbounded


@dataclass
class ScaleDecision:
    """One evaluated tick: what to do and why (the why is what the
    flight recorder keeps)."""

    kind: str  # "out" | "in" | "hold"
    count: int = 0
    reason: str = ""
    signals: Optional[SignalSnapshot] = None


@dataclass
class PolicyEngine:
    """Hysteresis + cooldown + step-limit state over an ElasticPolicy."""

    policy: ElasticPolicy
    last_out_at: Optional[float] = None
    last_in_at: Optional[float] = None
    refusals: int = field(default=0)

    # ------------------------------------------------------------ pressure --
    def pressure_reason(self, snap: SignalSnapshot) -> Optional[str]:
        """Why the deployment is overloaded, or None if it is not."""
        p = self.policy
        if snap.avg_cpu > p.high_watermark:
            return f"cpu {snap.avg_cpu:.2f} > {p.high_watermark:.2f}"
        if (p.admission_pressure_high is not None
                and snap.admission_pressure > p.admission_pressure_high):
            return (f"admission pressure {snap.admission_pressure:.2f} > "
                    f"{p.admission_pressure_high:.2f}")
        return None

    def idle(self, snap: SignalSnapshot) -> bool:
        p = self.policy
        if snap.avg_cpu >= p.low_watermark:
            return False
        # never release capacity while a secondary signal shows pressure
        if (p.admission_pressure_high is not None
                and snap.admission_pressure > p.admission_pressure_high / 2):
            return False
        return True

    # ------------------------------------------------------------ cooldowns --
    def cooling_out_until(self, now: float) -> Optional[float]:
        if self.last_out_at is None or self.policy.cooldown_out <= 0:
            return None
        until = self.last_out_at + self.policy.cooldown_out
        return until if now < until else None

    def cooling_in_until(self, now: float) -> Optional[float]:
        """Scale-in cools down after *any* event: draining capacity right
        after adding it is the flapping the converge invariant forbids."""
        if self.policy.cooldown_in <= 0:
            return None
        marks = [t for t in (self.last_out_at, self.last_in_at) if t is not None]
        if not marks:
            return None
        until = max(marks) + self.policy.cooldown_in
        return until if now < until else None

    # ------------------------------------------------------------- decision --
    def decide(self, snap: SignalSnapshot) -> ScaleDecision:
        p = self.policy
        live = snap.live
        reason = self.pressure_reason(snap)
        if reason is not None:
            until = self.cooling_out_until(snap.time)
            if until is not None:
                self.refusals += 1
                return ScaleDecision(
                    "hold", reason=f"cooldown-out until t={until:.2f}",
                    signals=snap)
            # size so the current load would land on the target (the
            # Fig. 13 rule), but always move by at least one
            wanted = max(live + 1, math.ceil(live * snap.avg_cpu / p.target))
            to_add = wanted - live
            if p.step_out > 0:
                to_add = min(to_add, p.step_out)
            if p.max_instances > 0:
                to_add = min(to_add, p.max_instances - live)
            if to_add <= 0:
                return ScaleDecision("hold", reason="at max_instances",
                                     signals=snap)
            return ScaleDecision("out", to_add, reason, snap)

        floor = max(1, p.min_instances)
        if p.scale_down and live > floor and self.idle(snap):
            until = self.cooling_in_until(snap.time)
            if until is not None:
                self.refusals += 1
                return ScaleDecision(
                    "hold", reason=f"cooldown-in until t={until:.2f}",
                    signals=snap)
            # fixed-step release (the classic ASG shape): hysteresis plus
            # the cooldown -- not a sizing formula -- bound the descent rate
            to_remove = min(max(1, p.step_in), live - floor)
            if to_remove <= 0:
                return ScaleDecision("hold", reason="at min_instances",
                                     signals=snap)
            return ScaleDecision(
                "in", to_remove,
                f"cpu {snap.avg_cpu:.2f} < {p.low_watermark:.2f}", snap)

        return ScaleDecision("hold", reason="in band", signals=snap)

    # ------------------------------------------------------------ journal --
    def journal_state(self) -> dict:
        return {"last_out_at": self.last_out_at, "last_in_at": self.last_in_at}

    def restore(self, state: dict) -> None:
        self.last_out_at = state.get("last_out_at")
        self.last_in_at = state.get("last_in_at")
