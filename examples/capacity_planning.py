#!/usr/bin/env python3
"""Capacity planning with the VIP-assignment engine (Sections 4.4-4.5).

Generates a 24 h production-style traffic trace (100 VIPs, 50K+ rules),
then replays the controller's 10-minute re-assignment loop: solve the
Figure 7 problem under the migration limit (YODA-limit), track instance
counts against the all-to-all baseline, and report the cost picture that
Figure 15/16 summarize.

Run:  python examples/capacity_planning.py
"""

import statistics

from repro.core.assignment import AssignmentProblem, plan_update
from repro.core.assignment.all_to_all import min_instances_for_traffic
from repro.sim.random import SeededRng
from repro.workload.trace import generate_trace, uniform_instances

CAPACITY = 300.0  # traffic units per instance (T_y)
RULE_CAPACITY = 2_000  # R_y: the 5 ms latency point of Figure 6
POOL = 170


def main() -> None:
    trace = generate_trace(SeededRng(42))
    ratios = trace.max_to_avg_all()
    print(f"trace: {len(trace.vips)} VIPs, {trace.total_rules():,} rules, "
          f"max/avg traffic ratio mean={statistics.mean(ratios.values()):.1f}x "
          f"(this is the per-tenant saving vs peak-provisioned HAProxy)")

    pool = uniform_instances(POOL, CAPACITY, RULE_CAPACITY)
    old_assignment = None
    print(f"\n{'hour':>5} {'traffic':>9} {'all-to-all':>10} "
          f"{'yoda-limit':>10} {'migrated':>9} {'solve':>7}")
    peak_used = 0
    for interval in range(0, trace.intervals, 18):  # every 3 hours
        specs = trace.interval_vip_specs(interval, CAPACITY, max_replicas=12)
        traffic_now = trace.traffic_at(interval)
        conns = None
        if old_assignment:
            conns = {
                (vip, inst): traffic_now.get(vip, 0.0) / max(len(insts), 1)
                for vip, insts in old_assignment.items() for inst in insts
            }
        problem = AssignmentProblem(
            vips=specs, instances=pool,
            old_assignment=old_assignment, old_connections=conns,
            migration_limit=0.10 if old_assignment else None,
        )
        outcome = plan_update(problem, limit=True)
        baseline = min_instances_for_traffic(problem)
        peak_used = max(peak_used, outcome.instances_used)
        print(f"{interval / 6:5.0f} {sum(traffic_now.values()):9.0f} "
              f"{baseline:10d} {outcome.instances_used:10d} "
              f"{outcome.migrated_fraction:8.1%} "
              f"{outcome.solve_seconds * 1e3:5.0f}ms")
        old_assignment = outcome.assignment.mapping

    print(f"\npeak YODA instances over the day: {peak_used} "
          f"(shared elastically across all {len(trace.vips)} tenants; "
          f"each tenant alone would provision for its own peak)")


if __name__ == "__main__":
    main()
