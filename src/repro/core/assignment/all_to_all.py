"""The all-to-all baseline's instance count (paper Section 4.4).

All-to-all puts every VIP (and all of its rules) on every instance: maximum
robustness and the minimum possible instance count (total traffic /
per-instance capacity), at the price of every instance scanning every
tenant's rules -- the latency problem Figure 6 quantifies.  Fig. 16 needs
only that count.
"""

from __future__ import annotations

import math

from repro.core.assignment.problem import AssignmentProblem
from repro.errors import InfeasibleError


def min_instances_for_traffic(problem: AssignmentProblem) -> int:
    """The reference lower bound used in Fig. 16(c): total traffic divided
    by per-instance traffic capacity."""
    if not problem.instances:
        raise InfeasibleError("no instances")
    capacity = problem.instances[0].traffic_capacity
    return max(1, math.ceil(problem.total_traffic() / capacity))
