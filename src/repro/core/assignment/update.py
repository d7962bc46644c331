"""Periodic assignment updates (paper Section 4.5, evaluated in Fig. 16).

``plan_update`` runs one re-assignment round the way the paper's Section 8
does: solve under the migration/transient constraints (YODA-limit); if the
LP is infeasible at the configured delta, relax delta in +10% increments
exactly as the paper reports doing ("the LP gave infeasible assignment at
two points ... we increased the limit by increments of 10%").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.assignment.constraints import transient_overloaded_instances
from repro.core.assignment.greedy import compact_assignment, solve_greedy
from repro.core.assignment.ilp import IlpSolver
from repro.core.assignment.problem import Assignment, AssignmentProblem
from repro.errors import InfeasibleError


@dataclass
class UpdateOutcome:
    """One re-assignment round's results (the Fig. 16 metrics)."""

    assignment: Assignment
    instances_used: int
    median_rules_per_instance: float
    migrated_fraction: float
    transient_overloaded: List[str]
    effective_migration_limit: Optional[float]
    relaxations: int = 0
    solve_seconds: float = 0.0


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def plan_update(
    problem: AssignmentProblem,
    limit: bool = True,
    use_lp: bool = True,
    max_relaxations: int = 9,
) -> UpdateOutcome:
    """Compute the next assignment.

    Args:
        limit: True = YODA-limit (Eq. 4-7 enforced, delta relaxed by +10%
            on infeasibility); False = YODA-no-limit.
        use_lp: use the LP-rounding solver (falls back to greedy anyway).
    """
    relaxations = 0
    work = problem
    while True:
        try:
            if use_lp:
                solver = IlpSolver(enforce_update_constraints=limit)
                assignment = solver.solve(work)
            else:
                assignment = solve_greedy(work, enforce_update_constraints=limit)
                assignment = compact_assignment(
                    work, assignment, enforce_update_constraints=limit
                )
            break
        except InfeasibleError:
            if not limit or work.migration_limit is None:
                raise
            relaxations += 1
            if relaxations > max_relaxations:
                raise
            work = AssignmentProblem(
                vips=work.vips,
                instances=work.instances,
                old_assignment=work.old_assignment,
                old_connections=work.old_connections,
                migration_limit=work.migration_limit + 0.10,
            )

    rules = list(assignment.rules_per_instance(problem).values())
    return UpdateOutcome(
        assignment=assignment,
        instances_used=assignment.num_instances_used(),
        median_rules_per_instance=_median([float(r) for r in rules]),
        migrated_fraction=assignment.migrated_fraction(problem),
        transient_overloaded=transient_overloaded_instances(problem, assignment),
        effective_migration_limit=work.migration_limit,
        relaxations=relaxations,
        solve_seconds=assignment.solve_seconds,
    )
