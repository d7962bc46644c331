"""Exact branch-and-bound solver for small Figure 7 instances.

Exponential, so only usable for toy sizes -- but that makes it a perfect
*oracle*: the test suite compares greedy plus the emptying step against
provably optimal instance counts on small random problems, turning "the
heuristic looks reasonable" into a measured optimality gap.

Covers the steady-state formulation (Eq. 1-3); update constraints
(Eq. 4-7) are heuristic-only territory.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.assignment.problem import Assignment, AssignmentProblem
from repro.errors import InfeasibleError

MAX_VIPS = 12
MAX_INSTANCES = 10


def solve_exact(problem: AssignmentProblem,
                time_budget: float = 10.0) -> Assignment:
    """Find an assignment using provably the fewest instances.

    Raises:
        InfeasibleError: no feasible assignment exists.
        ValueError: the problem is too large for exact search.
        TimeoutError: the search ran past ``time_budget`` before it
            proved its incumbent optimal.
    """
    vips = sorted(problem.vips, key=lambda v: -v.per_instance_share)
    instances = list(problem.instances)
    if len(vips) > MAX_VIPS or len(instances) > MAX_INSTANCES:
        raise ValueError(
            f"exact solver is for toy sizes (<= {MAX_VIPS} VIPs x "
            f"<= {MAX_INSTANCES} instances); use plan_update"
        )

    deadline = time.perf_counter() + time_budget
    n_inst = len(instances)
    shares = [v.per_instance_share for v in vips]
    rules = [v.rules for v in vips]
    replicas = [v.replicas for v in vips]
    cap_t = [i.traffic_capacity for i in instances]
    cap_r = [i.rule_capacity for i in instances]

    best: Dict[str, object] = {"count": None, "mapping": None}
    used_traffic = [0.0] * n_inst
    used_rules = [0] * n_inst
    # replicas per instance: an instance is open while this is nonzero
    # (used_traffic can keep float residue after a VIP is taken back off)
    used_replicas = [0] * n_inst
    chosen: List[Tuple[int, ...]] = []

    def search(v: int, opened: int) -> None:
        if time.perf_counter() > deadline:
            raise TimeoutError(
                f"exact search ran past {time_budget:g} s without a proof")
        if best["count"] is not None and opened >= best["count"]:
            return  # opened never shrinks down a branch: cannot win
        if v == len(vips):
            if best["count"] is None or opened < best["count"]:
                best["count"] = opened
                best["mapping"] = list(chosen)
            return
        # choose replicas[v] instances for vip v (combinations, since the
        # replica set is unordered)
        need = replicas[v]

        def combos(start: int, picked: List[int]) -> None:
            if len(picked) == need:
                new_opened = opened + sum(
                    1 for idx in picked if used_replicas[idx] == 0)
                if best["count"] is not None and new_opened >= best["count"]:
                    return
                for idx in picked:
                    used_traffic[idx] += shares[v]
                    used_rules[idx] += rules[v]
                    used_replicas[idx] += 1
                chosen.append(tuple(picked))
                search(v + 1, new_opened)
                chosen.pop()
                for idx in picked:
                    used_traffic[idx] -= shares[v]
                    used_rules[idx] -= rules[v]
                    used_replicas[idx] -= 1
                return
            if start == n_inst:
                return
            remaining = n_inst - start
            if remaining < need - len(picked):
                return
            idx = start
            if (used_traffic[idx] + shares[v] <= cap_t[idx] + 1e-9
                    and used_rules[idx] + rules[v] <= cap_r[idx]):
                picked.append(idx)
                combos(start + 1, picked)
                picked.pop()
            combos(start + 1, picked)

        combos(0, [])

    search(0, 0)
    if best["mapping"] is None:
        raise InfeasibleError("no feasible assignment exists (exact search)")

    mapping = {
        vips[v].name: [instances[idx].name for idx in combo]
        for v, combo in enumerate(best["mapping"])
    }
    return Assignment(mapping=mapping, solver="exact-bnb")
