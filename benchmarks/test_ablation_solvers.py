"""Ablation: greedy first-fit alone vs first-fit plus the emptying step.

The paper used CPLEX with a 10% gap (Section 8 reports 1.5-21.5 s per
round).  This bench quantifies the instances the emptying step closes on
top of first-fit and what it costs in solve time.
"""

import random
import time

from conftest import run_once

from repro.core.assignment import (
    AssignmentProblem, InstanceSpec, VipSpec,
    solve_greedy, validate_assignment,
)
from repro.core.assignment.greedy import compact_assignment


def _problem(seed: int, num_vips: int = 60, pool: int = 80):
    rnd = random.Random(seed)
    vips = [
        VipSpec(f"v{i}", traffic=rnd.uniform(10, 300),
                rules=rnd.randint(20, 1500), replicas=rnd.randint(1, 4))
        for i in range(num_vips)
    ]
    instances = [InstanceSpec(f"y{i}", 400.0, 2000) for i in range(pool)]
    return AssignmentProblem(vips=vips, instances=instances)


def test_solver_ablation(benchmark):
    def _run():
        rows = []
        for seed in (1, 2, 3):
            prob = _problem(seed)
            t0 = time.perf_counter()
            first_fit = solve_greedy(prob)
            t_first_fit = time.perf_counter() - t0
            t0 = time.perf_counter()
            emptied = compact_assignment(prob, first_fit)
            t_step = time.perf_counter() - t0
            assert validate_assignment(prob, first_fit).ok
            assert validate_assignment(prob, emptied).ok
            rows.append({
                "seed": seed,
                "first_fit_instances": first_fit.num_instances_used(),
                "emptying_instances": emptied.num_instances_used(),
                "first_fit_s": round(t_first_fit, 3),
                "emptying_s": round(t_step, 3),
            })
        return rows

    rows = run_once(benchmark, _run)
    print()
    for row in rows:
        print(row)
    for row in rows:
        # the step only closes instances, it never opens one
        assert row["emptying_instances"] <= row["first_fit_instances"]
