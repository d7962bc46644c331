"""VIP-to-instance assignment (paper Sections 4.4-4.5, Figure 7).

The controller periodically solves: minimize the number of YODA instances
used, subject to per-instance traffic capacity after f_v failures (Eq. 1),
rule-memory capacity (Eq. 2), exactly n_v replicas per VIP (Eq. 3),
bounded transient load while the non-atomic L4 update is in flight
(Eq. 4-5), and a cap on connections forced to migrate (Eq. 6-7).

The paper's all-to-all baseline (every VIP on every instance: fewest
instances, most rules) is its instance count,
:func:`~repro.core.assignment.all_to_all.min_instances_for_traffic`.  Two
solvers:

- :func:`~repro.core.assignment.greedy.solve_greedy` -- first-fit
  decreasing with migration awareness; always available, fast.
- :class:`~repro.core.assignment.ilp.IlpSolver` -- the Figure 7 ILP via LP
  relaxation (scipy/HiGHS) + rounding + greedy repair (the paper used
  CPLEX with a 10% optimality gap; we substitute and validate Eq. 1-7
  explicitly).
"""

from repro.core.assignment.constraints import ConstraintReport, validate_assignment
from repro.core.assignment.exact import solve_exact
from repro.core.assignment.greedy import solve_greedy
from repro.core.assignment.ilp import IlpSolver
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
    "IlpSolver",
    "validate_assignment",
    "ConstraintReport",
    "plan_update",
    "UpdateOutcome",
]
