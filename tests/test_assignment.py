"""VIP assignment: problem model, solvers, constraints, updates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import (
    Assignment,
    AssignmentProblem,
    IlpSolver,
    InstanceSpec,
    VipSpec,
    plan_update,
    solve_greedy,
    validate_assignment,
)
from repro.core.assignment.all_to_all import min_instances_for_traffic
from repro.core.assignment.greedy import compact_assignment
from repro.errors import AssignmentError, InfeasibleError


def insts(n, traffic=100.0, rules=5000):
    return [InstanceSpec(f"y{i}", traffic, rules) for i in range(n)]


class TestVipSpec:
    def test_failures_tolerated(self):
        vip = VipSpec("v", traffic=100, rules=10, replicas=4, oversub=0.25)
        assert vip.failures_tolerated == 1

    def test_failures_capped_below_replicas(self):
        vip = VipSpec("v", traffic=100, rules=10, replicas=1, oversub=0.9)
        assert vip.failures_tolerated == 0

    def test_per_instance_share(self):
        vip = VipSpec("v", traffic=120, rules=10, replicas=4, oversub=0.25)
        assert vip.per_instance_share == pytest.approx(40.0)  # 120/(4-1)

    def test_invalid_specs(self):
        with pytest.raises(AssignmentError):
            VipSpec("v", traffic=-1, rules=0, replicas=1)
        with pytest.raises(AssignmentError):
            VipSpec("v", traffic=1, rules=0, replicas=0)
        with pytest.raises(AssignmentError):
            VipSpec("v", traffic=1, rules=0, replicas=1, oversub=1.0)


class TestProblem:
    def test_duplicate_names_rejected(self):
        with pytest.raises(AssignmentError):
            AssignmentProblem(
                vips=[VipSpec("v", 1, 1, 1), VipSpec("v", 2, 2, 1)],
                instances=insts(2),
            )

    def test_replicas_beyond_pool_rejected(self):
        with pytest.raises(AssignmentError):
            AssignmentProblem(vips=[VipSpec("v", 1, 1, 5)], instances=insts(2))

    def test_old_share_zero_without_history(self):
        prob = AssignmentProblem(vips=[VipSpec("v", 10, 1, 2)],
                                 instances=insts(3))
        assert prob.old_share("v", "y0") == 0.0

    def test_old_share_uses_old_replica_count(self):
        prob = AssignmentProblem(
            vips=[VipSpec("v", 90, 1, 2, oversub=0.0)],
            instances=insts(4),
            old_assignment={"v": ["y0", "y1", "y2"]},
        )
        assert prob.old_share("v", "y0") == pytest.approx(30.0)
        assert prob.old_share("v", "y3") == 0.0


class TestAllToAll:
    def test_min_instances_for_traffic(self):
        prob = AssignmentProblem(
            vips=[VipSpec("a", 250, 5, 2)], instances=insts(5, traffic=100),
        )
        assert min_instances_for_traffic(prob) == 3


class TestGreedy:
    def test_respects_replica_count(self):
        prob = AssignmentProblem(
            vips=[VipSpec("a", 30, 5, 3), VipSpec("b", 10, 5, 2)],
            instances=insts(5),
        )
        assignment = solve_greedy(prob)
        assert len(assignment.mapping["a"]) == 3
        assert len(assignment.mapping["b"]) == 2
        assert validate_assignment(prob, assignment).ok

    def test_respects_rule_capacity(self):
        prob = AssignmentProblem(
            vips=[VipSpec("a", 1, 4000, 1), VipSpec("b", 1, 4000, 1)],
            instances=insts(2, rules=5000),
        )
        assignment = solve_greedy(prob)
        rules = assignment.rules_per_instance(prob)
        assert all(v <= 5000 for v in rules.values())
        assert assignment.num_instances_used() == 2

    def test_infeasible_raises(self):
        prob = AssignmentProblem(
            vips=[VipSpec("a", 500, 5, 2)], instances=insts(2, traffic=100),
        )
        with pytest.raises(InfeasibleError):
            solve_greedy(prob)

    def test_packs_instead_of_spreading(self):
        prob = AssignmentProblem(
            vips=[VipSpec(f"v{i}", 10, 10, 1) for i in range(5)],
            instances=insts(10, traffic=100),
        )
        assignment = solve_greedy(prob)
        assert assignment.num_instances_used() == 1

    def test_limit_mode_prefers_old_instances(self):
        vips = [VipSpec(f"v{i}", 20, 10, 2) for i in range(4)]
        base = solve_greedy(AssignmentProblem(vips=vips, instances=insts(8)))
        conns = {(v, i): 10.0 for v, lst in base.mapping.items() for i in lst}
        prob = AssignmentProblem(
            vips=vips, instances=insts(8), old_assignment=base.mapping,
            old_connections=conns, migration_limit=0.10,
        )
        again = solve_greedy(prob, enforce_update_constraints=True)
        assert again.migrated_fraction(prob) <= 0.10

    def test_migration_budget_enforced(self):
        vips = [VipSpec(f"v{i}", 20, 10, 2) for i in range(4)]
        base = solve_greedy(AssignmentProblem(vips=vips, instances=insts(8)))
        conns = {(v, i): 10.0 for v, lst in base.mapping.items() for i in lst}
        # force migration by removing all old instances from the pool
        new_pool = [InstanceSpec(f"z{i}", 100.0, 5000) for i in range(8)]
        prob = AssignmentProblem(
            vips=vips, instances=new_pool, old_assignment=base.mapping,
            old_connections=conns, migration_limit=0.10,
        )
        with pytest.raises(InfeasibleError):
            solve_greedy(prob, enforce_update_constraints=True)

    def test_old_assignment_skips_a_removed_vip_and_hides_nothing_else(self):
        def solve(old_assignment):
            return solve_greedy(AssignmentProblem(
                vips=[VipSpec("kept", 20, 10, 2)], instances=insts(4),
                old_assignment=old_assignment, old_connections={},
                migration_limit=0.10))

        # a VIP of the old mapping that is gone this round is skipped (any
        # key that equals no VIP name, a stray 5 included, is such a VIP)
        old = {"kept": ["y0", "y1"], "gone": ["y2"], 5: ["y3"]}
        assert set(solve(old).mapping) == {"kept"}

        # ... and only that: a lookup that fails is not a removed VIP
        class Uncomparable:
            __hash__ = object.__hash__

            def __eq__(self, other):
                raise TypeError("not a VIP name")

        with pytest.raises(TypeError, match="not a VIP name"):
            solve({Uncomparable(): ["y0"]})


class TestIlp:
    def test_beats_or_matches_greedy(self):
        import random

        random.seed(3)
        vips = [VipSpec(f"v{i}", random.uniform(5, 80), random.randint(10, 900),
                        random.randint(1, 3)) for i in range(25)]
        prob = AssignmentProblem(vips=vips, instances=insts(30))
        greedy = solve_greedy(prob)
        solver = IlpSolver(enforce_update_constraints=False)
        ilp = solver.solve(prob)
        assert validate_assignment(prob, ilp).ok
        assert ilp.num_instances_used() <= greedy.num_instances_used()
        assert solver.lp_lower_bound is not None
        assert ilp.num_instances_used() >= solver.lp_lower_bound - 1e-6

    def test_result_always_validates(self):
        prob = AssignmentProblem(
            vips=[VipSpec("a", 50, 100, 2), VipSpec("b", 30, 4900, 1)],
            instances=insts(4),
        )
        assignment = IlpSolver(enforce_update_constraints=False).solve(prob)
        assert validate_assignment(prob, assignment).ok


class TestCompaction:
    def test_compaction_never_increases_instances(self):
        prob = AssignmentProblem(
            vips=[VipSpec(f"v{i}", 10, 10, 1) for i in range(6)],
            instances=insts(10),
        )
        spread = Assignment(mapping={f"v{i}": [f"y{i}"] for i in range(6)})
        compacted = compact_assignment(prob, spread,
                                       enforce_update_constraints=False)
        assert compacted.num_instances_used() <= 6
        assert validate_assignment(prob, compacted).ok


class TestPlanUpdate:
    def _chain(self, limit):
        vips1 = [VipSpec(f"v{i}", 20, 50, 2) for i in range(6)]
        first = plan_update(AssignmentProblem(vips=vips1, instances=insts(10)),
                            limit=limit, use_lp=False)
        vips2 = [VipSpec(f"v{i}", 26, 50, 2) for i in range(6)]
        conns = {(v, i): 10.0 for v, lst in first.assignment.mapping.items()
                 for i in lst}
        prob2 = AssignmentProblem(
            vips=vips2, instances=insts(10),
            old_assignment=first.assignment.mapping,
            old_connections=conns,
            migration_limit=0.10 if limit else None,
        )
        return plan_update(prob2, limit=limit, use_lp=False)

    def test_limit_mode_bounds_migration(self):
        outcome = self._chain(limit=True)
        assert outcome.migrated_fraction <= (outcome.effective_migration_limit
                                             or 0.10) + 1e-9

    def test_nolimit_mode_reports_metrics(self):
        outcome = self._chain(limit=False)
        assert outcome.instances_used > 0
        assert outcome.median_rules_per_instance > 0

    def test_relaxation_on_infeasible_delta(self):
        vips = [VipSpec(f"v{i}", 20, 50, 2) for i in range(4)]
        base = solve_greedy(AssignmentProblem(vips=vips, instances=insts(8)))
        conns = {(v, i): 10.0 for v, lst in base.mapping.items() for i in lst}
        new_pool = [InstanceSpec(f"z{i}", 100.0, 5000) for i in range(8)]
        prob = AssignmentProblem(
            vips=vips, instances=new_pool, old_assignment=base.mapping,
            old_connections=conns, migration_limit=0.10,
        )
        outcome = plan_update(prob, limit=True, use_lp=False)
        assert outcome.relaxations >= 1  # delta was raised in 10% steps
        assert outcome.effective_migration_limit > 0.10


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.floats(1.0, 50.0), st.integers(1, 800), st.integers(1, 3)),
    min_size=1, max_size=15,
))
def test_greedy_solutions_always_satisfy_constraints(specs):
    vips = [VipSpec(f"v{i}", t, r, n) for i, (t, r, n) in enumerate(specs)]
    prob = AssignmentProblem(vips=vips, instances=insts(20))
    try:
        assignment = solve_greedy(prob)
    except InfeasibleError:
        return  # acceptable outcome; never an invalid assignment
    report = validate_assignment(prob, assignment)
    assert report.ok, report.violations
