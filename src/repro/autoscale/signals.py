"""Pressure-signal collection for the autoscaler.

One snapshot per policy tick, pulled straight from the live objects the
controller already owns (CPU windows, qos admission buckets,
concurrency ceilings).  All reads are pure: collecting a snapshot schedules nothing,
which is what keeps a disarmed autoscaler zero-perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class SignalSnapshot:
    """What the deployment looked like at one decision point."""

    time: float
    live: int  # alive + active + not draining instances
    avg_cpu: float  # mean utilization over the last window
    max_cpu: float
    admission_pressure: float  # 0..1: worst token-bucket depletion
    limiter_saturation: float  # 0..1: worst inflight / concurrency ceiling


class SignalReader:
    """Collects :class:`SignalSnapshot` from a controller's deployment."""

    def __init__(self, controller):
        self.controller = controller

    # -------------------------------------------------------------- helpers --
    def live_instances(self) -> List[object]:
        ctl = self.controller
        return [ctl.instances[n] for n in ctl.live_instance_names()]

    def _admission_pressure(self, instance, now: float) -> float:
        qos = getattr(instance, "qos", None)
        if qos is None or qos.admission is None:
            return 0.0
        worst = 0.0
        for vip in self.controller.policies:
            level = qos.admission.bucket_level(vip, now)
            if level is not None:
                worst = max(worst, 1.0 - level)
        return worst

    @staticmethod
    def _limiter_saturation(instance) -> float:
        qos = getattr(instance, "qos", None)
        if qos is None:
            return 0.0
        return qos.limiter.inflight / qos.limiter.limit

    # -------------------------------------------------------------- collect --
    def collect(self) -> SignalSnapshot:
        ctl = self.controller
        now = ctl.loop.now()
        live = self.live_instances()
        if not live:
            return SignalSnapshot(now, 0, 0.0, 0.0, 0.0, 0.0)
        utils = [i.cpu.utilization_window() for i in live]
        for i in live:
            i.cpu.reset_window()
        admission = max(self._admission_pressure(i, now) for i in live)
        limiter = max(self._limiter_saturation(i) for i in live)
        return SignalSnapshot(
            time=now,
            live=len(live),
            avg_cpu=sum(utils) / len(utils),
            max_cpu=max(utils),
            admission_pressure=admission,
            limiter_saturation=limiter,
        )
