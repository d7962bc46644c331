"""Scenario engine: built-in suite shape, determinism, the contrast."""

import pytest

from repro.chaos.faults import crash
from repro.chaos.library import BUILTIN_SCENARIOS, get_scenario, scenario_names
from repro.chaos.scenario import Scenario, ScenarioEngine, run_contrast, run_scenario
from repro.sim.tracing import PacketTrace
from tests.trace_tools import trace_filter

# (invariant, checked, violation_count) in report order, recorded at the
# commit before the invariants shared one base class: the HAProxy leg of
# the store-death contrast and the repair-off leg of the rolling restart
HAPROXY_VERDICTS = [
    ("storage-before-ack", 0, 0),
    ("acked-byte-loss", 20382, 0),
    ("flow-conservation", 98, 1),
    ("snat-leak", 0, 0),
    ("no-accepted-request-dropped", 98, 1),
]
REPAIR_OFF_VERDICTS = [
    ("storage-before-ack", 22, 0),
    ("acked-byte-loss", 37019, 0),
    ("flow-conservation", 11, 0),
    ("snat-leak", 3, 0),
    ("no-accepted-request-dropped", 11, 0),
    ("replication-factor", 475, 12),
]


def tiny_scenario(**overrides):
    defaults = dict(
        name="tiny-crash",
        description="one serving instance dies mid-load",
        faults=[crash(0.5, "lb:serving")],
        duration=2.0,
        drain=4.0,
        clients=2,
        object_bytes=150_000,
        object_count=2,
        num_lb_instances=2,
        num_store_servers=2,
        num_backends=2,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestLibrary:
    def test_at_least_six_builtins(self):
        assert len(BUILTIN_SCENARIOS) >= 6

    def test_every_builtin_includes_a_crash(self):
        # something must die in every scenario; a region kill crashes
        # every host in the site at once
        for scenario in BUILTIN_SCENARIOS.values():
            assert any(f.kind in ("crash", "flap", "region_kill")
                       for f in scenario.faults)

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(KeyError, match="store-partition"):
            get_scenario("no-such-thing")

    def test_timeline_is_time_sorted(self):
        scenario = get_scenario("double-crash")
        times = [float(line.split("s", 1)[0][2:]) for line in scenario.timeline()]
        assert times == sorted(times)

    def test_names_are_sorted(self):
        assert scenario_names() == sorted(BUILTIN_SCENARIOS)


class TestEngine:
    def test_yoda_survives_serving_crash(self):
        outcome = run_scenario(tiny_scenario(), lb="yoda", seed=7)
        assert outcome.ok
        assert outcome.pages_loaded > 0 and outcome.broken_pages == 0
        assert all(v.ok for v in outcome.verdicts)
        assert any(a.startswith("crash:") for a in outcome.applied)

    def test_same_seed_same_run(self):
        first = run_scenario(tiny_scenario(), lb="yoda", seed=7)
        second = run_scenario(tiny_scenario(), lb="yoda", seed=7)
        assert first.trace_digest == second.trace_digest
        assert [str(v) for v in first.verdicts] == [str(v) for v in second.verdicts]
        assert first.pages_loaded == second.pages_loaded

    def test_different_seed_different_schedule(self):
        first = run_scenario(tiny_scenario(), lb="yoda", seed=7)
        second = run_scenario(tiny_scenario(), lb="yoda", seed=8)
        assert first.trace_digest != second.trace_digest

    def test_timed_crash_reverts(self):
        scenario = tiny_scenario(faults=[crash(0.2, "store:0", duration=1.0)])
        engine = ScenarioEngine(scenario, lb="yoda", seed=7)
        outcome = engine.run()
        assert not engine.bed.yoda.store_servers[0].host.failed
        assert outcome.invariants_ok

    def test_permanent_crash_stays_down_through_drain(self):
        engine = ScenarioEngine(tiny_scenario(), lb="yoda", seed=7)
        engine.run()
        crashed = [a for a in engine.applied if a.spec.kind == "crash"]
        assert crashed and engine.bed.network.host(
            crashed[0].target_name).failed

    def test_build_is_idempotent(self):
        # run() calls build(): it must run the world the caller already
        # built and attached things to, not silently build a second one
        engine = ScenarioEngine(tiny_scenario(), lb="yoda", seed=7)
        bed = engine.build()
        assert engine.build() is bed
        trace = bed.network.add_trace(PacketTrace())
        outcome = engine.run()
        assert engine.bed is bed
        sent = bed.network.metrics.counter("tx_packets").value
        assert sent > 0
        assert len(trace_filter(trace, direction="tx")) == sent
        assert outcome.trace_digest == run_scenario(
            tiny_scenario(), lb="yoda", seed=7).trace_digest

    def test_render_mentions_verdicts(self):
        outcome = run_scenario(tiny_scenario(), lb="yoda", seed=7)
        text = outcome.render()
        assert "PASS" in text and "storage-before-ack" in text


class TestContrast:
    def test_store_death_contrast_holds(self):
        outcomes = run_contrast(get_scenario("store-death-midhandshake"), seed=2016)
        assert outcomes["yoda"].ok
        assert not outcomes["haproxy"].ok  # flows pinned to the dead VM break
        # invariants that exist for both tiers stay clean even in the
        # broken run -- HAProxy loses flows, it does not corrupt them
        haproxy = {v.invariant: v for v in outcomes["haproxy"].verdicts}
        assert haproxy["acked-byte-loss"].checked > 0
        # every verdict in report order, recorded at the commit before the
        # invariants shared one base class; the yoda-only audits report 0
        # checks on the baseline, they are not dropped
        assert [(v.invariant, v.checked, v.violation_count)
                for v in outcomes["haproxy"].verdicts] == HAPROXY_VERDICTS


class TestRepairAblation:
    """The self-healing store is falsifiable: same schedule, repair off,
    and the durability verdict must report the flow-state loss."""

    def test_new_store_scenarios_are_registered(self):
        for name in ("rolling-store-restart", "crash-heal-crash"):
            scenario = get_scenario(name)
            assert any(f.target.startswith("store") for f in scenario.faults)
            assert any(f.target.startswith("lb") for f in scenario.faults)

    def test_rolling_restart_passes_with_repair_and_fails_without(self):
        scenario = get_scenario("rolling-store-restart")
        on = run_scenario(scenario, lb="yoda", seed=2016, repair=True)
        off = run_scenario(scenario, lb="yoda", seed=2016, repair=False)
        rf_on = next(v for v in on.verdicts
                     if v.invariant == "replication-factor")
        rf_off = next(v for v in off.verdicts
                      if v.invariant == "replication-factor")
        assert on.ok and rf_on.ok
        assert not off.ok and not rf_off.ok
        assert "(repair OFF)" in off.render()
        assert [(v.invariant, v.checked, v.violation_count)
                for v in off.verdicts] == REPAIR_OFF_VERDICTS

    def test_ablation_is_deterministic(self):
        scenario = get_scenario("crash-heal-crash")
        first = run_scenario(scenario, lb="yoda", seed=2016, repair=False)
        second = run_scenario(scenario, lb="yoda", seed=2016, repair=False)
        assert first.trace_digest == second.trace_digest
        assert first.violation_count == second.violation_count > 0
