"""Problem and solution data types for VIP assignment (paper Table 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AssignmentError


@dataclass(frozen=True)
class VipSpec:
    """One VIP's demand (paper notation in parentheses).

    Attributes:
        name: VIP identifier.
        traffic: total traffic t_v (arbitrary units, same as capacity).
        rules: number of L7 rules r_v.
        replicas: n_v, instances this VIP must be assigned to.
        oversub: o_v, fraction of the VIP's instances whose failure must
            not overload the rest; f_v = floor(n_v * o_v).
    """

    name: str
    traffic: float
    rules: int
    replicas: int
    oversub: float = 0.25

    def __post_init__(self) -> None:
        if self.traffic < 0 or self.rules < 0:
            raise AssignmentError(f"negative demand for VIP {self.name}")
        if self.replicas < 1:
            raise AssignmentError(f"VIP {self.name} needs replicas >= 1")
        if not 0.0 <= self.oversub < 1.0:
            raise AssignmentError(f"oversub must be in [0, 1), got {self.oversub}")

    @property
    def failures_tolerated(self) -> int:
        """f_v = n_v * o_v, capped so at least one instance survives."""
        return min(int(self.replicas * self.oversub), self.replicas - 1)

    @property
    def per_instance_share(self) -> float:
        """Traffic each assigned instance must be able to absorb after f_v
        failures: t_v / (n_v - f_v)  (Eq. 1's left side per VIP)."""
        return self.traffic / (self.replicas - self.failures_tolerated)


@dataclass(frozen=True)
class InstanceSpec:
    """One YODA instance's capacity: traffic T_y and rule memory R_y."""

    name: str
    traffic_capacity: float
    rule_capacity: int

    def __post_init__(self) -> None:
        if self.traffic_capacity <= 0 or self.rule_capacity <= 0:
            raise AssignmentError(f"instance {self.name} needs positive capacities")


@dataclass
class AssignmentProblem:
    """The full input of Figure 7.

    ``old_assignment`` / ``old_connections`` / ``migration_limit`` encode
    the update constraints (Eq. 4-7); leave them None for a from-scratch
    solve (YODA-no-limit behaves as if they were None).
    """

    vips: List[VipSpec]
    instances: List[InstanceSpec]
    old_assignment: Optional[Dict[str, List[str]]] = None
    old_connections: Optional[Dict[Tuple[str, str], float]] = None
    migration_limit: Optional[float] = None  # delta: max fraction migrated

    def __post_init__(self) -> None:
        names = [v.name for v in self.vips]
        if len(set(names)) != len(names):
            raise AssignmentError("duplicate VIP names")
        inames = [i.name for i in self.instances]
        if len(set(inames)) != len(inames):
            raise AssignmentError("duplicate instance names")
        for vip in self.vips:
            if vip.replicas > len(self.instances):
                raise AssignmentError(
                    f"VIP {vip.name} wants {vip.replicas} replicas but only "
                    f"{len(self.instances)} instances exist"
                )

    def vip(self, name: str) -> VipSpec:
        for v in self.vips:
            if v.name == name:
                return v
        raise AssignmentError(f"unknown VIP {name!r}")

    def instance(self, name: str) -> InstanceSpec:
        for i in self.instances:
            if i.name == name:
                return i
        raise AssignmentError(f"unknown instance {name!r}")

    def total_traffic(self) -> float:
        return sum(v.traffic for v in self.vips)

    def total_connections(self) -> float:
        if not self.old_connections:
            return 0.0
        return sum(self.old_connections.values())

    def old_share(self, vip_name: str, inst_name: str) -> float:
        """Traffic instance ``inst_name`` carries for the VIP under the old
        assignment (0 if not previously assigned)."""
        if not self.old_assignment:
            return 0.0
        assigned = self.old_assignment.get(vip_name, [])
        if inst_name not in assigned:
            return 0.0
        vip = self.vip(vip_name)
        f_old = min(int(len(assigned) * vip.oversub), len(assigned) - 1)
        return vip.traffic / max(len(assigned) - f_old, 1)


@dataclass
class Assignment:
    """A solution: VIP -> instance names."""

    mapping: Dict[str, List[str]]
    solver: str = ""
    solve_seconds: float = 0.0

    def instances_used(self) -> List[str]:
        used = set()
        for assigned in self.mapping.values():
            used.update(assigned)
        return sorted(used)

    def num_instances_used(self) -> int:
        return len(self.instances_used())

    def rules_per_instance(self, problem: AssignmentProblem) -> Dict[str, int]:
        out: Dict[str, int] = {i.name: 0 for i in problem.instances}
        for vip_name, assigned in self.mapping.items():
            rules = problem.vip(vip_name).rules
            for inst in assigned:
                out[inst] += rules
        return {k: v for k, v in out.items() if k in set(self.instances_used())}

    def traffic_per_instance(self, problem: AssignmentProblem) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for vip_name, assigned in self.mapping.items():
            vip = problem.vip(vip_name)
            f_v = min(int(len(assigned) * vip.oversub), len(assigned) - 1)
            share = vip.traffic / max(len(assigned) - f_v, 1)
            for inst in assigned:
                out[inst] = out.get(inst, 0.0) + share
        return out

    def migrated_connections(self, problem: AssignmentProblem) -> float:
        """Connections whose (vip, instance) pair disappears (Eq. 6's sum)."""
        if not problem.old_assignment or not problem.old_connections:
            return 0.0
        moved = 0.0
        for (vip_name, inst_name), conns in problem.old_connections.items():
            if inst_name not in self.mapping.get(vip_name, []):
                moved += conns
        return moved

    def migrated_fraction(self, problem: AssignmentProblem) -> float:
        total = problem.total_connections()
        if total <= 0:
            return 0.0
        return self.migrated_connections(problem) / total
