"""VIP assignment: problem model, solvers, constraints, updates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import (
    Assignment,
    AssignmentProblem,
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

    def test_limit_mode_keeps_transient_load_in_capacity(self):
        # each VIP was whole (70) on one instance and is now split in two
        # halves of 35: a half of b on y0 would meet a's old 70 there
        prob = AssignmentProblem(
            vips=[VipSpec("a", 70, 10, 2, oversub=0.0),
                  VipSpec("b", 70, 10, 2, oversub=0.0)],
            instances=insts(3), old_assignment={"a": ["y0"], "b": ["y1"]},
            old_connections={}, migration_limit=0.10)
        assert solve_greedy(prob, enforce_update_constraints=False).mapping == {
            "a": ["y0", "y1"], "b": ["y0", "y1"]}
        limited = solve_greedy(prob)
        assert limited.mapping == {"a": ["y0", "y2"], "b": ["y1", "y2"]}
        assert validate_assignment(prob, limited).ok

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

    @staticmethod
    def _empty(traffic, mapping, **old_state):
        prob = AssignmentProblem(
            vips=[VipSpec(name, t, 10, len(mapping[name]), oversub=0.0)
                  for name, t in traffic.items()],
            instances=insts(3), **old_state)
        before = Assignment(mapping=mapping)
        assert validate_assignment(prob, before).ok
        after = compact_assignment(prob, before,
                                   enforce_update_constraints=bool(old_state))
        assert validate_assignment(prob, after).ok
        return after.mapping

    def test_empties_by_one_ejection(self):
        # d fits nowhere as it is; a makes way for it and moves to y2
        after = self._empty({"a": 40, "b": 45, "c": 55, "d": 50},
                            {"a": ["y0"], "b": ["y0"], "c": ["y2"], "d": ["y1"]})
        assert after == {"a": ["y2"], "b": ["y0"], "c": ["y2"], "d": ["y0"]}

    def test_empties_by_one_swap(self):
        # e cannot enter y1 until d (65) leaves it, and d fits y0 only
        # after b (45) comes back the other way
        after = self._empty(
            {"a": 25, "b": 45, "c": 35, "d": 65, "e": 25},
            {"a": ["y1"], "b": ["y0"], "c": ["y0"], "d": ["y1"], "e": ["y2"]})
        assert after == {"a": ["y1"], "b": ["y1"], "c": ["y0"], "d": ["y0"],
                         "e": ["y1"]}

    def test_migration_budget_holds_an_instance_open(self):
        def emptied(delta):
            mapping = {"a": ["y0"], "b": ["y1"]}
            return self._empty(
                {"a": 10, "b": 10}, mapping, old_assignment=mapping,
                old_connections={("a", "y0"): 10.0, ("b", "y1"): 10.0},
                migration_limit=delta)

        # closing either instance migrates half of all connections
        assert emptied(0.10) == {"a": ["y0"], "b": ["y1"]}
        assert emptied(0.50) == {"a": ["y1"], "b": ["y1"]}  # y0 goes first: ties by name

    def test_transient_load_holds_an_instance_open(self):
        # each VIP was whole on one instance and is now split over two:
        # b on y2 would meet a's old 70 there on top of its own new 35
        mapping = {"a": ["y2", "y0"], "b": ["y0", "y1"]}
        old_state = dict(old_assignment={"a": ["y2"], "b": ["y1"]},
                         old_connections={}, migration_limit=0.10)
        assert self._empty({"a": 70, "b": 70}, mapping) == {
            "a": ["y2", "y0"], "b": ["y0", "y2"]}
        assert self._empty({"a": 70, "b": 70}, mapping, **old_state) == mapping


class TestPlanUpdate:
    def _chain(self, limit):
        vips1 = [VipSpec(f"v{i}", 20, 50, 2) for i in range(6)]
        first = plan_update(AssignmentProblem(vips=vips1, instances=insts(10)),
                            limit=limit)
        vips2 = [VipSpec(f"v{i}", 26, 50, 2) for i in range(6)]
        conns = {(v, i): 10.0 for v, lst in first.assignment.mapping.items()
                 for i in lst}
        prob2 = AssignmentProblem(
            vips=vips2, instances=insts(10),
            old_assignment=first.assignment.mapping,
            old_connections=conns,
            migration_limit=0.10 if limit else None,
        )
        return plan_update(prob2, limit=limit)

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
        outcome = plan_update(prob, limit=True)
        assert outcome.relaxations >= 1  # delta was raised in 10% steps
        assert outcome.effective_migration_limit > 0.10

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_first_fit(self, seed):
        import random

        random.seed(seed)
        vips = [VipSpec(f"v{i}", random.uniform(5, 80), random.randint(10, 900),
                        random.randint(1, 3)) for i in range(25)]
        prob = AssignmentProblem(vips=vips, instances=insts(30))
        outcome = plan_update(prob, limit=False)
        assert validate_assignment(prob, outcome.assignment).ok
        assert (outcome.instances_used
                <= solve_greedy(prob).num_instances_used())

    def test_result_always_validates(self):
        prob = AssignmentProblem(
            vips=[VipSpec("a", 50, 100, 2), VipSpec("b", 30, 4900, 1)],
            instances=insts(4),
        )
        outcome = plan_update(prob, limit=False)
        assert validate_assignment(prob, outcome.assignment).ok

    def test_limit_mode_result_validates_against_eq_4_to_7(self):
        first = self._chain(limit=True)
        vips = [VipSpec(f"v{i}", 30, 50, 2) for i in range(6)]
        conns = {(v, i): 10.0 for v, lst in first.assignment.mapping.items()
                 for i in lst}
        prob = AssignmentProblem(
            vips=vips, instances=insts(10),
            old_assignment=first.assignment.mapping, old_connections=conns,
            migration_limit=0.30,
        )
        outcome = plan_update(prob, limit=True)
        assert outcome.relaxations == 0
        assert validate_assignment(prob, outcome.assignment).ok


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
