"""Pressure-signal collection for the autoscaler.

One snapshot per policy tick, pulled straight from the live objects the
controller already owns (CPU windows, qos admission buckets,
concurrency ceilings, sketch-backed latency histograms) plus -- when a
``MetricScraper`` is attached -- the scraped ``*.rate`` series for shed
traffic.  All reads are pure: collecting a snapshot schedules nothing,
which is what keeps a disarmed autoscaler zero-perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class SignalSnapshot:
    """What the deployment looked like at one decision point."""

    time: float
    live: int  # alive + active + not draining instances
    avg_cpu: float  # mean utilization over the last window
    max_cpu: float
    admission_pressure: float  # 0..1: worst token-bucket depletion
    limiter_saturation: float  # 0..1: worst inflight / concurrency ceiling
    latency_p95: Optional[float] = None  # sketch quantile, seconds
    shed_rate: float = 0.0  # scraped SYNs shed per second


class SignalReader:
    """Collects :class:`SignalSnapshot` from a controller's deployment."""

    def __init__(self, controller, scraper=None,
                 latency_histogram: str = "server_connect_latency"):
        self.controller = controller
        self.scraper = scraper
        self.latency_histogram = latency_histogram

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

    def _latency_p95(self, live) -> Optional[float]:
        worst = None
        for instance in live:
            hist = instance.metrics.histograms.get(self.latency_histogram)
            if hist is None or hist.count == 0:
                continue
            p95 = hist.percentile(95.0)
            if worst is None or p95 > worst:
                worst = p95
        return worst

    def _shed_rate(self) -> float:
        if self.scraper is None:
            return 0.0
        total = 0.0
        for name, series in self.scraper.series.items():
            if name.endswith("syns_shed.rate") and series.values:
                total += max(0.0, series.values[-1])
        return total

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
            latency_p95=self._latency_p95(live),
            shed_rate=self._shed_rate(),
        )
