"""VIP-to-instance assignment (paper Sections 4.4-4.5, Figure 7).

The controller periodically solves: minimize the number of YODA instances
used, subject to per-instance traffic capacity after f_v failures (Eq. 1),
rule-memory capacity (Eq. 2), exactly n_v replicas per VIP (Eq. 3),
bounded transient load while the non-atomic L4 update is in flight
(Eq. 4-5), and a cap on connections forced to migrate (Eq. 6-7).

The paper's all-to-all baseline (every VIP on every instance: fewest
instances, most rules) is its instance count,
:func:`~repro.core.assignment.all_to_all.min_instances_for_traffic`.  One
solver, :func:`~repro.core.assignment.update.plan_update`: first-fit
decreasing with migration awareness
(:func:`~repro.core.assignment.greedy.solve_greedy`), then an emptying step
that closes every instance whose replicas fit elsewhere
(:func:`~repro.core.assignment.greedy.compact_assignment`).  The paper used
CPLEX with a 10% optimality gap; every emptying here is validated against
Eq. 1-7 before it is kept.
"""

from repro.core.assignment.constraints import ConstraintReport, validate_assignment
from repro.core.assignment.exact import solve_exact
from repro.core.assignment.greedy import solve_greedy
from repro.core.assignment.problem import (
    Assignment,
    AssignmentProblem,
    InstanceSpec,
    VipSpec,
)
from repro.core.assignment.update import UpdateOutcome, plan_update

__all__ = [
    "VipSpec",
    "InstanceSpec",
    "AssignmentProblem",
    "Assignment",
    "solve_greedy",
    "solve_exact",
    "validate_assignment",
    "ConstraintReport",
    "plan_update",
    "UpdateOutcome",
]
