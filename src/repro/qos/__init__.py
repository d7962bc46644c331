"""repro.qos -- the overload-control plane.

Admission control with priority-tiered shedding, per-backend circuit
breakers, AIMD adaptive concurrency limits, and make-before-break
connection draining.  See DESIGN.md section 7.
"""

from repro.qos.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.qos.breaker import (
    BreakerBoard,
    BreakerState,
    BreakerView,
    CircuitBreaker,
)
from repro.qos.concurrency import AdaptiveConcurrencyLimiter
from repro.qos.config import QosConfig
from repro.qos.drain import DrainCoordinator, DrainState, DrainStatus
from repro.qos.plane import InstanceQos

__all__ = [
    "AdaptiveConcurrencyLimiter",
    "AdmissionController",
    "AdmissionDecision",
    "BreakerBoard",
    "BreakerState",
    "BreakerView",
    "CircuitBreaker",
    "DrainCoordinator",
    "DrainState",
    "DrainStatus",
    "InstanceQos",
    "QosConfig",
    "TokenBucket",
]
