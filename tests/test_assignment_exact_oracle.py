"""The exact solver as an optimality oracle for the heuristics."""

import random

import pytest

from repro.core.assignment import (
    AssignmentProblem, IlpSolver, InstanceSpec, VipSpec,
    solve_greedy, validate_assignment,
)
from repro.core.assignment.exact import solve_exact
from repro.errors import InfeasibleError


def small_problem(seed, n_vips=6, n_inst=6):
    rnd = random.Random(seed)
    vips = [
        VipSpec(f"v{i}", traffic=rnd.uniform(5, 60), rules=rnd.randint(10, 900),
                replicas=rnd.randint(1, 2))
        for i in range(n_vips)
    ]
    instances = [InstanceSpec(f"y{i}", 100.0, 2000) for i in range(n_inst)]
    return AssignmentProblem(vips=vips, instances=instances)


class TestExactSolver:
    def test_finds_obvious_optimum(self):
        # 4 tiny VIPs fit one instance
        prob = AssignmentProblem(
            vips=[VipSpec(f"v{i}", 10, 100, 1) for i in range(4)],
            instances=[InstanceSpec(f"y{i}", 100.0, 2000) for i in range(4)],
        )
        assignment = solve_exact(prob)
        assert assignment.num_instances_used() == 1
        assert validate_assignment(prob, assignment).ok

    def test_respects_replicas(self):
        prob = AssignmentProblem(
            vips=[VipSpec("v", 10, 100, 3)],
            instances=[InstanceSpec(f"y{i}", 100.0, 2000) for i in range(4)],
        )
        assignment = solve_exact(prob)
        assert assignment.num_instances_used() == 3

    def test_rule_capacity_forces_spread(self):
        prob = AssignmentProblem(
            vips=[VipSpec(f"v{i}", 1, 1500, 1) for i in range(3)],
            instances=[InstanceSpec(f"y{i}", 100.0, 2000) for i in range(4)],
        )
        assert solve_exact(prob).num_instances_used() == 3

    def test_infeasible_raises(self):
        prob = AssignmentProblem(
            vips=[VipSpec("v", 500, 100, 2)],
            instances=[InstanceSpec(f"y{i}", 100.0, 2000) for i in range(2)],
        )
        with pytest.raises(InfeasibleError):
            solve_exact(prob)

    def test_too_large_rejected(self):
        prob = AssignmentProblem(
            vips=[VipSpec(f"v{i}", 1, 1, 1) for i in range(20)],
            instances=[InstanceSpec(f"y{i}", 100.0, 2000) for i in range(8)],
        )
        with pytest.raises(ValueError):
            solve_exact(prob)


class TestHeuristicOptimalityGap:
    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_within_two_of_optimal(self, seed):
        prob = small_problem(seed)
        optimal = solve_exact(prob).num_instances_used()
        greedy = solve_greedy(prob).num_instances_used()
        assert optimal <= greedy <= optimal + 2

    @pytest.mark.parametrize("seed", range(4))
    def test_lp_rounding_within_one_of_optimal(self, seed):
        prob = small_problem(seed)
        optimal = solve_exact(prob).num_instances_used()
        lp = IlpSolver(enforce_update_constraints=False).solve(prob)
        assert optimal <= lp.num_instances_used() <= optimal + 1

    def test_exact_never_beats_lp_lower_bound(self):
        for seed in range(4):
            prob = small_problem(seed)
            solver = IlpSolver(enforce_update_constraints=False)
            solver.solve(prob)
            optimal = solve_exact(prob).num_instances_used()
            assert optimal >= solver.lp_lower_bound - 1e-6
