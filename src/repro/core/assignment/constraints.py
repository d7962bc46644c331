"""Explicit validation of the Figure 7 constraints (Eq. 1-7).

Because the ILP is solved approximately here (greedy first-fit and an
emptying step instead of CPLEX), every emptying the step keeps is checked
against the exact constraints; the experiments also use this module to
*measure* violations (e.g. Fig. 16(d): how many instances a no-limit
update transiently overloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.assignment.problem import Assignment, AssignmentProblem


@dataclass
class ConstraintReport:
    """Outcome of validating one assignment."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    overloaded_steady: List[str] = field(default_factory=list)  # Eq. 1 or 2
    overloaded_transient: List[str] = field(default_factory=list)  # Eq. 4-5
    migrated_fraction: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def validate_assignment(
    problem: AssignmentProblem,
    assignment: Assignment,
    check_transient: bool = True,
    check_migration: bool = True,
) -> ConstraintReport:
    report = ConstraintReport(ok=True)
    inst_traffic: Dict[str, float] = {i.name: 0.0 for i in problem.instances}
    inst_rules: Dict[str, int] = {i.name: 0 for i in problem.instances}

    # Eq. 3: exactly n_v instances per VIP
    for vip in problem.vips:
        assigned = assignment.mapping.get(vip.name, [])
        if len(assigned) != vip.replicas:
            report.ok = False
            report.violations.append(
                f"Eq3: VIP {vip.name} assigned {len(assigned)} != n_v={vip.replicas}"
            )
        if len(set(assigned)) != len(assigned):
            report.ok = False
            report.violations.append(f"VIP {vip.name} has duplicate instances")
        for inst in assigned:
            if inst not in inst_traffic:
                report.ok = False
                report.violations.append(
                    f"VIP {vip.name} assigned to unknown instance {inst}"
                )
                continue
            inst_traffic[inst] += vip.per_instance_share
            inst_rules[inst] += vip.rules

    # Eq. 1 / Eq. 2: steady-state capacity
    for inst in problem.instances:
        if inst_traffic[inst.name] > inst.traffic_capacity * (1 + 1e-9):
            report.ok = False
            report.overloaded_steady.append(inst.name)
            report.violations.append(
                f"Eq1: {inst.name} traffic {inst_traffic[inst.name]:.1f} "
                f"> T_y={inst.traffic_capacity:.1f}"
            )
        if inst_rules[inst.name] > inst.rule_capacity:
            report.ok = False
            report.overloaded_steady.append(inst.name)
            report.violations.append(
                f"Eq2: {inst.name} rules {inst_rules[inst.name]} "
                f"> R_y={inst.rule_capacity}"
            )

    # Eq. 4-5: transient load during the non-atomic mapping switch --
    # an instance may simultaneously see old-mapping and new-mapping traffic.
    # Instances already over capacity from old traffic alone are reported
    # but cannot fail validation: no new assignment can fix them (the paper
    # makes the same observation about Fig. 16(d): "the instances that were
    # overloaded in YODA-limit were already overloaded before starting the
    # new round").
    # Both sums add the nonzero shares in problem order, which is the sum
    # over every VIP (x + 0.0 == x), collected in one pass per mapping.
    if check_transient and problem.old_assignment:
        vips = problem.vips
        index = {vip.name: k for k, vip in enumerate(vips)}
        old: Dict[str, Dict[int, float]] = {i.name: {} for i in problem.instances}
        new: Dict[str, Dict[int, float]] = {i.name: {} for i in problem.instances}
        for vip_name, assigned in problem.old_assignment.items():
            k = index.get(vip_name)
            if k is not None:
                share = vips[k].share_among(assigned)
                for name in assigned:
                    if name in old:
                        old[name][k] = share
        for vip_name, assigned in assignment.mapping.items():
            k = index.get(vip_name)
            if k is not None:
                for name in assigned:
                    if name in new:
                        new[name][k] = vips[k].per_instance_share
        preexisting = set()
        for inst in problem.instances:
            olds, news = old[inst.name], new[inst.name]
            if sum(olds[k] for k in sorted(olds)) > inst.traffic_capacity * (1 + 1e-9):
                preexisting.add(inst.name)
            transient = 0.0
            for k in sorted(olds.keys() | news.keys()):
                transient += max(news.get(k, 0.0), olds.get(k, 0.0))
            if transient > inst.traffic_capacity * (1 + 1e-9):
                report.overloaded_transient.append(inst.name)
        avoidable = [n for n in report.overloaded_transient if n not in preexisting]
        if avoidable and problem.migration_limit is not None:
            report.ok = False
            report.violations.append(f"Eq4-5: transient overload on {avoidable}")

    # Eq. 6-7: bounded connection migration
    if check_migration and problem.old_connections:
        report.migrated_fraction = assignment.migrated_fraction(problem)
        if (
            problem.migration_limit is not None
            and report.migrated_fraction > problem.migration_limit + 1e-9
        ):
            report.ok = False
            report.violations.append(
                f"Eq6-7: migrated {report.migrated_fraction:.1%} "
                f"> delta={problem.migration_limit:.1%}"
            )

    return report


def transient_overloaded_instances(
    problem: AssignmentProblem, assignment: Assignment
) -> List[str]:
    """Instances whose transient (old+new max) load exceeds capacity --
    what Fig. 16(d) counts for the no-limit variant."""
    report = validate_assignment(problem, assignment, check_migration=False)
    return report.overloaded_transient
