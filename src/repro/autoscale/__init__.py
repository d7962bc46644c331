"""Closed-loop elastic scaling (auto-scaling-group pattern, sim-time).

The subsystem splits the loop into three testable layers:

- :mod:`repro.autoscale.signals` -- reads the deployment's live pressure
  signals (per-instance CPU windows, admission-bucket depletion,
  concurrency-ceiling saturation).
- :mod:`repro.autoscale.decision` -- a pure decision engine: hysteresis
  bands around a utilization target, separate scale-out/scale-in
  cooldowns, per-decision step limits, and floor/ceiling bounds.
- :mod:`repro.autoscale.engine` -- the actuator: adopts spares or spawns
  instances on scale-out, drains make-before-break on scale-in, bumps
  store-cluster membership epochs for replica scaling, journals its
  clocks and event ledger through the leader journal, and flight-records
  every decision.

Nothing here runs unless explicitly armed (``YodaServiceConfig.autoscale``
or ``controller.attach_autoscaler``), so golden traces stay bit-identical
by construction.
"""

from repro.autoscale.engine import Autoscaler, ScaleEvent
from repro.autoscale.decision import ElasticPolicy, PolicyEngine, ScaleDecision
from repro.autoscale.signals import SignalReader, SignalSnapshot

__all__ = [
    "Autoscaler",
    "ElasticPolicy",
    "PolicyEngine",
    "ScaleDecision",
    "ScaleEvent",
    "SignalReader",
    "SignalSnapshot",
]
