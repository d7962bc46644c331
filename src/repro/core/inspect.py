"""Operator-facing introspection: snapshot a deployment's state as text.

The paper's controller exposes health and traffic statistics over REST;
this module is the equivalent read side for the simulation -- a structured
snapshot (suitable for assertions) plus a rendered table (suitable for
humans debugging an experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import render_table
from repro.core.controller import YodaController
from repro.core.service import YodaService


@dataclass
class InstanceSnapshot:
    name: str
    ip: str
    alive: bool
    active: bool
    flows: int
    flows_by_phase: Dict[str, int]
    rules: int
    completed_flows: int
    recovered_flows: int
    cpu_queue_s: float


@dataclass
class VipSnapshot:
    vip: str
    version: int
    rule_count: int
    tls: bool
    assigned: List[str]
    mapped_ips: List[str]
    backends_healthy: int
    backends_total: int


@dataclass
class StoreSnapshot:
    name: str
    alive: bool
    in_ring: bool
    keys: int
    ops: Dict[str, int]


@dataclass
class DeploymentSnapshot:
    time: float
    instances: List[InstanceSnapshot] = field(default_factory=list)
    vips: List[VipSnapshot] = field(default_factory=list)
    stores: List[StoreSnapshot] = field(default_factory=list)

    def instance(self, name: str) -> Optional[InstanceSnapshot]:
        return next((i for i in self.instances if i.name == name), None)

    def render(self) -> str:
        parts = [f"deployment @ t={self.time:.3f}s"]
        parts.append(render_table(
            [{
                "instance": i.name, "state": self._state(i),
                "flows": i.flows, "rules": i.rules,
                "completed": i.completed_flows, "recovered": i.recovered_flows,
            } for i in self.instances],
            title="L7 instances",
        ))
        parts.append(render_table(
            [{
                "vip": v.vip, "ver": v.version, "rules": v.rule_count,
                "tls": "yes" if v.tls else "no",
                "instances": len(v.mapped_ips),
                "backends": f"{v.backends_healthy}/{v.backends_total}",
            } for v in self.vips],
            title="VIPs",
        ))
        parts.append(render_table(
            [{
                "store": s.name,
                "state": "up" if s.alive else "DOWN",
                "ring": "in" if s.in_ring else "out",
                "keys": s.keys,
                "sets": s.ops.get("set", 0), "gets": s.ops.get("get", 0),
            } for s in self.stores],
            title="TCPStore",
        ))
        return "\n\n".join(parts)

    @staticmethod
    def _state(i: InstanceSnapshot) -> str:
        if not i.alive:
            return "FAILED"
        return "active" if i.active else "draining"


def snapshot(service: YodaService) -> DeploymentSnapshot:
    """Capture the current state of a whole YODA deployment."""
    controller: YodaController = service.controller
    snap = DeploymentSnapshot(time=service.loop.now())

    for name, instance in controller.instances.items():
        phases: Dict[str, int] = {}
        for flow in instance.flows.values():
            phase = flow.phase.flow_phase.value
            phases[phase] = phases.get(phase, 0) + 1
        counters = instance.metrics.counters
        snap.instances.append(InstanceSnapshot(
            name=name, ip=instance.ip,
            alive=not instance.host.failed,
            active=bool(controller.active.get(name)),
            flows=len(instance.flows),
            flows_by_phase=phases,
            rules=instance.rule_count(),
            completed_flows=instance.completed_flows,
            recovered_flows=(counters["flows_recovered"].value
                             if "flows_recovered" in counters else 0),
            cpu_queue_s=instance.cpu.queue_delay(),
        ))

    for vip, policy in controller.policies.items():
        backends = list(policy.backends)
        healthy = sum(
            1 for b in backends if controller.health_view.is_healthy(b)
        )
        snap.vips.append(VipSnapshot(
            vip=vip, version=policy.version, rule_count=policy.rule_count,
            tls=policy.certificate is not None,
            assigned=list(controller.assignments.get(vip, [])),
            mapped_ips=service.l4lb.mapping(vip),
            backends_healthy=healthy, backends_total=len(backends),
        ))

    if controller.kv_cluster is not None:
        for name, server in controller.kv_cluster.servers.items():
            snap.stores.append(StoreSnapshot(
                name=name, alive=not server.host.failed,
                in_ring=name in controller.kv_cluster.ring,
                keys=len(server), ops=dict(server.ops),
            ))
    return snap
