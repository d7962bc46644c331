"""Multi-region chaos scenarios end to end: region kill with standby
promotion, the no-replication ablation, WAN partition without split
brain, and partial-site gray failure."""

import pytest

from repro.chaos import get_scenario, run_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.experiments import fig_failover
from tests.test_body_integrity import wrong_streams

SEED = 2016


def verdict(outcome, invariant):
    match = [v for v in outcome.verdicts if v.invariant == invariant]
    assert match, f"{invariant} not among {[v.invariant for v in outcome.verdicts]}"
    return match[0]


def run_with_streams(name):
    """The scenario's outcome, after checking every stream that completed
    delivered exactly the bytes its backend synthesized."""
    engine = ScenarioEngine(get_scenario(name), lb="yoda", seed=SEED)
    outcome = engine.run()
    assert wrong_streams(engine.fleet.results) == []
    return outcome


@pytest.fixture(scope="module")
def region_kill_outcome():
    return run_with_streams("region-kill")


@pytest.fixture(scope="module")
def ablation_outcome():
    return run_scenario(get_scenario("region-kill"), lb="yoda", seed=SEED,
                        replication=False)


class TestRegionKill:
    def test_all_established_streams_survive(self, region_kill_outcome):
        outcome = region_kill_outcome
        assert outcome.ok, outcome.render()
        assert outcome.streams_completed == 6
        assert outcome.streams_broken == 0

    def test_controller_promoted_the_standby(self, region_kill_outcome):
        assert region_kill_outcome.failed_over
        assert region_kill_outcome.records_lost == 0

    def test_survival_invariant_actually_checked(self, region_kill_outcome):
        v = verdict(region_kill_outcome,
                    "established-flows-survive-region-failover")
        assert v.ok
        assert v.checked == 6  # every stream was established pre-kill

    def test_promotion_was_legitimate(self, region_kill_outcome):
        assert verdict(region_kill_outcome, "no-split-brain-promotion").ok


class TestRegionKillAblation:
    """``--no-replication``: the standby promotes against an empty store,
    so every established stream must break -- deterministically."""

    def test_every_established_stream_breaks(self, ablation_outcome):
        outcome = ablation_outcome
        assert not outcome.replication
        assert not outcome.ok
        assert outcome.streams_completed == 0
        assert outcome.streams_broken == 6

    def test_survival_invariant_is_violated(self, ablation_outcome):
        v = verdict(ablation_outcome,
                    "established-flows-survive-region-failover")
        assert not v.ok
        assert v.violation_count == 6

    def test_promotion_still_happens(self, ablation_outcome):
        # failure detection and promotion are replication-independent;
        # only the *resume* step has nothing to work with
        assert ablation_outcome.failed_over

    def test_ablation_is_deterministic(self, ablation_outcome):
        again = run_scenario(get_scenario("region-kill"), lb="yoda",
                             seed=SEED, replication=False)
        assert again.trace_digest == ablation_outcome.trace_digest


class TestWanPartition:
    def test_partition_does_not_trigger_failover(self):
        outcome = run_with_streams("wan-partition")
        assert outcome.ok, outcome.render()
        assert not outcome.failed_over  # promotion here would be split brain
        assert verdict(outcome, "no-split-brain-promotion").ok
        assert outcome.streams_completed == 4
        assert outcome.pages_loaded > 0


class TestRegionGrayFailure:
    def test_partial_site_failure_is_handled_in_region(self):
        outcome = run_with_streams("region-gray-failure")
        assert outcome.ok, outcome.render()
        assert not outcome.failed_over
        assert outcome.streams_completed == 4


class TestFailoverExperiment:
    def test_quick_run_contrasts_replication_on_off(self):
        result = fig_failover.run_quick(seed=SEED)
        with_repl = result.rows[0]
        without = result.rows[-1]
        assert with_repl["failed_over"] and without["failed_over"]
        assert with_repl["streams"] == "3/3"
        assert without["streams"] == "0/3"
        assert without["bytes_lost"] > 0
        assert with_repl["bytes_lost"] == 0
