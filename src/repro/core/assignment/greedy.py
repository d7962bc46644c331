"""Greedy first-fit-decreasing solver for the Figure 7 problem.

Deterministic, fast, and always available; also serves as the repair step
for the LP-rounding solver.  Heuristics, in order:

1. Place VIPs by decreasing per-instance share (big rocks first).
2. For each VIP prefer instances it was already assigned to (zero
   migration), then instances already opened (minimize the objective),
   then fresh instances.
3. Respect Eq. 1/2 always; Eq. 4/5 (transient) and Eq. 6/7 (migration)
   only when the problem carries old state and a migration limit
   (YODA-limit mode).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.core.assignment.problem import Assignment, AssignmentProblem
from repro.errors import AssignmentError, InfeasibleError


class _InstanceState:
    __slots__ = ("spec", "traffic", "rules", "old_traffic_by_vip")

    def __init__(self, spec):
        self.spec = spec
        self.traffic = 0.0
        self.rules = 0
        self.old_traffic_by_vip: Dict[str, float] = {}

    def transient_load(self) -> float:
        """max(old, new) per VIP, summed: the Eq. 4-5 quantity.

        ``traffic`` already holds the new shares of VIPs assigned here;
        VIPs that were here and left keep contributing their old share.
        """
        total = self.traffic
        for vip_name, old in self.old_traffic_by_vip.items():
            total += old  # old traffic still arrives until all muxes update
        return total


def solve_greedy(
    problem: AssignmentProblem,
    enforce_update_constraints: bool = True,
    pinned: Optional[Dict[str, List[str]]] = None,
) -> Assignment:
    """Solve by first-fit decreasing.

    Args:
        enforce_update_constraints: apply Eq. 4-7 when old state exists
            (set False for YODA-no-limit).
        pinned: optional partial assignment to honor (from LP rounding).

    Raises:
        InfeasibleError: when some VIP cannot be placed.
    """
    start = time.perf_counter()
    limit_mode = (
        enforce_update_constraints
        and problem.old_assignment is not None
        and problem.migration_limit is not None
    )

    states = {i.name: _InstanceState(i) for i in problem.instances}
    # seed transient bookkeeping with old shares (they apply to every
    # instance until the new mapping reaches all muxes)
    if limit_mode:
        for vip_name, assigned in (problem.old_assignment or {}).items():
            try:
                problem.vip(vip_name)
            except AssignmentError:
                continue  # VIP was removed this round
            for inst in assigned:
                if inst in states:
                    states[inst].old_traffic_by_vip[vip_name] = problem.old_share(
                        vip_name, inst
                    )

    opened: Set[str] = set()
    mapping: Dict[str, List[str]] = {}
    migration_budget = (
        problem.migration_limit * problem.total_connections()
        if limit_mode and problem.old_connections
        else float("inf")
    )
    migrated = 0.0

    # big rocks first, where "big" is the dominant normalized dimension
    # (rules bind as often as traffic in the Section 8 workload)
    cap_t = max(i.traffic_capacity for i in problem.instances)
    cap_r = max(i.rule_capacity for i in problem.instances)
    order = sorted(
        problem.vips,
        key=lambda v: -max(v.per_instance_share / cap_t, v.rules / cap_r),
    )
    for vip in order:
        share = vip.per_instance_share
        chosen: List[str] = []
        pin = (pinned or {}).get(vip.name, [])
        old = set((problem.old_assignment or {}).get(vip.name, []))

        def fits(name: str) -> bool:
            st = states[name]
            if st.rules + vip.rules > st.spec.rule_capacity:
                return False
            if st.traffic + share > st.spec.traffic_capacity:
                return False
            if limit_mode:
                # Eq. 4-5: adding the new share on top of any old traffic
                # still arriving here must not exceed capacity.  If the VIP
                # was already here, its old share is replaced by
                # max(old, new) = handled by removing the old contribution.
                extra_old = st.old_traffic_by_vip.get(vip.name, 0.0)
                before = st.transient_load()
                after = before - min(extra_old, share) + share
                # Refuse only *avoidable* overload: an instance already
                # overloaded by old traffic may keep its VIPs (no new
                # assignment can reduce what the old mapping sends it).
                if after > st.spec.traffic_capacity and after > before + 1e-9:
                    return False
            return True

        def place(name: str) -> None:
            st = states[name]
            st.traffic += share
            st.rules += vip.rules
            opened.add(name)
            chosen.append(name)

        # preference tiers.  Staying on old instances (zero migration) is
        # only a goal in limit mode -- the paper's no-limit variant solves
        # each round from scratch, which is exactly why it migrates ~45%
        # of connections (Fig. 16(e)).
        tiers: List[List[str]] = [
            [n for n in pin if n in states],
            # most old connections first; ties by name, not by hash order
            sorted(
                (n for n in old if n in states),
                key=lambda n: (-(problem.old_connections or {}).get((vip.name, n), 0.0), n),
            ) if limit_mode else [],
            # best-fit decreasing: prefer the opened instance with the
            # least leftover capacity in the VIP's dominant dimension --
            # tighter packing means fewer instances (the objective)
            sorted(
                opened,
                key=lambda n: (
                    (states[n].spec.rule_capacity - states[n].rules)
                    if vip.rules / cap_r >= share / cap_t
                    else (states[n].spec.traffic_capacity - states[n].traffic),
                    n,
                ),
            ),
            sorted(
                (i.name for i in problem.instances if i.name not in opened),
                key=lambda n: n,
            ),
        ]
        seen: Set[str] = set()
        for tier in tiers:
            for name in tier:
                if len(chosen) == vip.replicas:
                    break
                if name in seen or name in chosen:
                    continue
                seen.add(name)
                if fits(name):
                    place(name)
            if len(chosen) == vip.replicas:
                break
        if len(chosen) != vip.replicas:
            raise InfeasibleError(
                f"cannot place VIP {vip.name} (share={share:.1f}, "
                f"rules={vip.rules}): only {len(chosen)}/{vip.replicas} fit"
            )
        # migration accounting (Eq. 6-7)
        if limit_mode and problem.old_connections:
            lost = [n for n in sorted(old) if n not in chosen]
            moved = sum(
                (problem.old_connections or {}).get((vip.name, n), 0.0) for n in lost
            )
            migrated += moved
            if migrated > migration_budget + 1e-9:
                raise InfeasibleError(
                    f"migration budget exceeded placing VIP {vip.name}: "
                    f"{migrated:.0f} > {migration_budget:.0f} connections"
                )
        mapping[vip.name] = chosen
        # the VIP's old contribution elsewhere remains (transient) -- but
        # where it stays assigned, drop the double count, keeping max(old,new)
        if limit_mode:
            for name in chosen:
                st = states[name]
                extra_old = st.old_traffic_by_vip.pop(vip.name, 0.0)
                # we added `share` and previously counted `extra_old`;
                # transient should be max(old, new)
                st.traffic -= 0.0  # new share stays in .traffic
                if extra_old > share:
                    # keep the excess as residual old traffic
                    st.old_traffic_by_vip[vip.name] = extra_old - share

    return Assignment(
        mapping=mapping, solver="greedy",
        solve_seconds=time.perf_counter() - start,
    )


def compact_assignment(
    problem: AssignmentProblem,
    assignment: Assignment,
    enforce_update_constraints: bool = True,
    max_iterations: int = 40,
) -> Assignment:
    """Iteratively close the least-loaded instance and re-pack.

    This is how the greedy solver approximates the ILP objective: an
    initial feasible packing is squeezed by evicting the emptiest
    instance and re-solving with the remaining pool, until that fails or
    stops helping.  All constraints (including the migration budget in
    limit mode) are re-checked by the inner solve.
    """
    best = assignment
    for _ in range(max_iterations):
        traffic = best.traffic_per_instance(problem)
        used = sorted(best.instances_used(), key=lambda n: traffic.get(n, 0.0))
        if len(used) <= 1:
            break
        victim = used[0]
        reduced = AssignmentProblem(
            vips=problem.vips,
            instances=[i for i in problem.instances if i.name != victim],
            old_assignment=problem.old_assignment,
            old_connections=problem.old_connections,
            migration_limit=problem.migration_limit,
        )
        pinned = {
            vip: [n for n in insts if n != victim]
            for vip, insts in best.mapping.items()
        }
        try:
            candidate = solve_greedy(
                reduced,
                enforce_update_constraints=enforce_update_constraints,
                pinned=pinned,
            )
        except InfeasibleError:
            break
        if candidate.num_instances_used() < best.num_instances_used():
            best = candidate
        else:
            break
    return best
