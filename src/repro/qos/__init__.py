"""repro.qos -- the overload-control plane.

Admission control with priority-tiered shedding, per-backend circuit
breakers, a fixed ceiling on connection-phase flows, and make-before-break
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
from repro.qos.concurrency import ConcurrencyLimiter
from repro.qos.config import QosConfig
from repro.qos.drain import DrainCoordinator, DrainState, DrainStatus
from repro.qos.plane import InstanceQos

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BreakerBoard",
    "BreakerState",
    "BreakerView",
    "CircuitBreaker",
    "ConcurrencyLimiter",
    "DrainCoordinator",
    "DrainState",
    "DrainStatus",
    "InstanceQos",
    "QosConfig",
    "TokenBucket",
]
