"""Per-instance bundle of the overload-control mechanisms.

:class:`InstanceQos` is what a :class:`~repro.core.instance.YodaInstance`
actually holds: the admission controller, the breaker board and the
concurrency ceiling for one VM, wired into that instance's metric registry
and the observability plane.  All decisions are pure computations on the event
loop's clock -- the qos plane schedules nothing and draws no randomness,
which is what the qos-armed golden-trace suite pins down.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.selector import BackendView
from repro.obs import OBS
from repro.qos.admission import AdmissionController, AdmissionDecision
from repro.qos.breaker import BreakerBoard, BreakerState, BreakerView
from repro.qos.concurrency import ConcurrencyLimiter
from repro.qos.config import QosConfig


class InstanceQos:
    """One instance's overload-control state."""

    def __init__(self, config: QosConfig, clock: Callable[[], float],
                 metrics, name: str):
        self.config = config
        self.clock = clock
        self.metrics = metrics
        self.name = name
        self.admission = AdmissionController(config)
        self.breakers = BreakerBoard(on_transition=self._on_breaker_transition)
        self.limiter = ConcurrencyLimiter()
        self._view_inner: Optional[BackendView] = None
        self._view_cached: Optional[BreakerView] = None

    # -------------------------------------------------------------- admission --
    def admit_syn(self, vip: str, client_ip: str) -> AdmissionDecision:
        """SYN-time gate: token bucket + tiers, then the concurrency limit.

        An admitted decision has already consumed a limiter slot; the
        instance must release it via :meth:`release_slot` exactly once.
        """
        decision = self.admission.admit(vip, client_ip, self.clock())
        if not decision.admitted:
            self.metrics.counter(f"qos_shed_{decision.reason}").inc()
            return decision
        if not self.limiter.try_acquire():
            self.metrics.counter("qos_shed_concurrency").inc()
            return AdmissionDecision(admitted=False, reason="concurrency",
                                     tier=decision.tier)
        return decision

    def release_slot(self) -> None:
        self.limiter.release()

    # --------------------------------------------------------------- breakers --
    def view(self, inner: BackendView) -> BackendView:
        """The selection view: controller health AND breaker verdicts."""
        if self._view_cached is None or self._view_inner is not inner:
            self._view_inner = inner
            self._view_cached = BreakerView(inner, self.breakers, self.clock)
        return self._view_cached

    def backend_success(self, backend: str) -> None:
        self.breakers.record_success(backend, self.clock())

    def backend_failure(self, backend: str) -> None:
        self.metrics.counter("qos_backend_failures").inc()
        self.breakers.record_failure(backend, self.clock())

    def _on_breaker_transition(self, backend: str, old: BreakerState,
                               new: BreakerState) -> None:
        if new is BreakerState.OPEN:
            self.metrics.counter("qos_breaker_opens").inc()
        elif new is BreakerState.CLOSED:
            self.metrics.counter("qos_breaker_closes").inc()
        if OBS.enabled:
            OBS.flight(self.name, "breaker",
                       f"{backend} {old.value} -> {new.value}")
