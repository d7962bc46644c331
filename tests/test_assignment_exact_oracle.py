"""The exact solver as an optimality oracle for the heuristic."""

import random

import pytest

from repro.core.assignment import (
    Assignment, AssignmentProblem, InstanceSpec, VipSpec,
    plan_update, solve_greedy, validate_assignment,
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

    def test_a_search_past_its_budget_raises(self):
        # an oracle must not hand back an incumbent it has not proved
        with pytest.raises(TimeoutError):
            solve_exact(small_problem(0), time_budget=0.0)

    @pytest.mark.parametrize("seed, witness", [
        (13, {"v0": ["y0"], "v2": ["y0"], "v4": ["y0", "y1"],
              "v1": ["y1"], "v3": ["y1"], "v5": ["y1"]}),
        (39, {"v0": ["y0"], "v4": ["y0"], "v2": ["y0", "y1"],
              "v5": ["y0", "y1"], "v1": ["y1"], "v3": ["y1"]}),
    ])
    def test_an_emptied_instance_counts_as_closed(self, seed, witness):
        """After a VIP is taken back off an instance its traffic sum can
        keep float residue; counting that instance as open made the search
        prune the 2-instance branches and answer 3 (seed 13) and 4 (39)."""
        prob = small_problem(seed)
        assert validate_assignment(prob, Assignment(mapping=witness)).ok
        assert solve_exact(prob).num_instances_used() == 2


class TestHeuristicOptimalityGap:
    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_within_two_of_optimal(self, seed):
        prob = small_problem(seed)
        optimal = solve_exact(prob).num_instances_used()
        greedy = solve_greedy(prob).num_instances_used()
        assert optimal <= greedy <= optimal + 2

    def test_emptying_step_is_optimal_on_every_small_problem(self):
        # first-fit alone is optimal on 43 of these 64
        missed = []
        for seed in range(64):
            prob = small_problem(seed)
            optimal = solve_exact(prob).num_instances_used()
            outcome = plan_update(prob, limit=False)
            assert validate_assignment(prob, outcome.assignment).ok
            if outcome.instances_used != optimal:
                missed.append((seed, outcome.instances_used, optimal))
        assert not missed, f"(seed, solver, optimum): {missed}"
