"""Controller high availability: lease election, fencing, journaled takeover.

The tentpole contract under test:

- N controller replicas compete for a fenced lease; exactly one acts.
- Every control decision carries the lease epoch; receivers reject
  stale-leader pushes (``StaleLeaderEpoch``).
- A new leader replays the journal and *finishes* the old leader's work
  (the drain handoff test is the canonical case).
- While leaderless the data plane is statically stable, and a dead
  singleton controller (one replica) leaves a measurable,
  unbounded outage window -- the ablation that prices the feature.
"""

import pytest

from repro.core import ControllerHAConfig, YodaServiceConfig
from repro.core.leader import FenceGate, LeaderToken
from repro.errors import ControllerError, StaleLeaderEpoch
from repro.experiments.harness import Testbed, TestbedConfig
from repro.qos.drain import DrainState


def make_bed(num_controllers=3, **overrides):
    defaults = dict(
        seed=77, lb="yoda", num_lb_instances=3, num_store_servers=3,
        num_backends=2, corpus="flat", flat_object_count=2,
        flat_object_bytes=40_000, client_jitter=0.0,
        yoda=YodaServiceConfig(
            controllers=(ControllerHAConfig(replicas=num_controllers)
                         if num_controllers else None)),
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def acting(bed):
    return [r for r in bed.yoda.replica_set.replicas if r.acting()]


class TestFenceGate:
    def test_newer_epoch_accepted_then_stale_rejected(self):
        gate = FenceGate("mux-0")
        gate.admit(LeaderToken(1, "ctl-0"), "mapping", now=1.0)
        gate.admit(LeaderToken(2, "ctl-1"), "mapping", now=2.0)
        with pytest.raises(StaleLeaderEpoch):
            gate.admit(LeaderToken(1, "ctl-0"), "mapping", now=3.0)
        assert gate.epoch == 2 and gate.holder == "ctl-1"
        assert gate.rejected == 1

    def test_one_epoch_one_holder(self):
        gate = FenceGate("inst-0")
        gate.admit(LeaderToken(3, "ctl-2"), "policy", now=0.5)
        gate.admit(LeaderToken(3, "ctl-2"), "policy", now=0.6)  # same holder ok
        with pytest.raises(StaleLeaderEpoch):
            gate.admit(LeaderToken(3, "ghost"), "policy", now=0.7)

    def test_none_token_is_the_unreplicated_mode(self):
        gate = FenceGate("mux-1")
        gate.admit(None, "mapping", now=0.0)  # silently accepted
        assert gate.epoch == -1 and not gate.log


class TestElection:
    def test_exactly_one_leader_at_epoch_one(self):
        bed = make_bed()
        bed.run(1.0)
        leaders = acting(bed)
        assert len(leaders) == 1
        assert leaders[0].elector.epoch == 1
        followers = [r for r in bed.yoda.replica_set.replicas
                     if r not in leaders]
        assert all(r.elector.state == "follower" for r in followers)

    def test_ha_off_builds_the_historical_singleton(self):
        bed = make_bed(num_controllers=0)
        assert bed.yoda.replica_set is None
        assert bed.yoda.controller_replicas == []
        assert bed.yoda.controller is bed.yoda._controller

    def test_leader_kill_elects_successor_at_higher_epoch(self):
        bed = make_bed()
        bed.run(1.0)
        old = acting(bed)[0]
        t_kill = bed.loop.now()
        old.fail()
        bed.run(4.0)
        leaders = acting(bed)
        assert len(leaders) == 1
        assert leaders[0] is not old
        assert leaders[0].elector.epoch == 2
        windows = bed.yoda.replica_set.leaderless_windows(bed.loop.now())
        # the boot window plus the kill-to-takeover window, both closed
        assert len(windows) == 2
        start, stop = windows[-1]
        assert start == pytest.approx(t_kill) and stop < bed.loop.now()

    def test_recovered_old_leader_stays_follower(self):
        bed = make_bed()
        bed.run(1.0)
        old = acting(bed)[0]
        old.fail()
        bed.run(4.0)
        old.recover()
        bed.run(2.0)
        leaders = acting(bed)
        assert len(leaders) == 1 and leaders[0] is not old
        assert old.elector.state == "follower"

    def test_lease_store_outage_leader_keeps_acting_on_silence(self):
        from repro.chaos.faults import apply_fault, lease_store_outage
        bed = make_bed()
        bed.run(1.0)
        leader = acting(bed)[0]
        applied = apply_fault(bed, lease_store_outage(0.0))
        bed.run(0.9)  # shorter than the 1.5 s lease ttl
        assert leader.acting()
        assert leader.elector.metrics.counter(
            "lease_store_unavailable").value > 0
        applied.revert()
        # quarantines on the timed-out lease servers must lapse before
        # renewals (or a fresh claim) succeed again; either way the
        # control plane converges back to exactly one acting leader
        bed.run(5.0)
        assert len(acting(bed)) == 1


class TestFencing:
    def test_stale_token_rejected_by_l4lb(self):
        bed = make_bed()
        bed.run(1.0)
        ips = bed.l4lb.mapping(bed.vip)
        with pytest.raises(StaleLeaderEpoch):
            bed.l4lb.update_mapping(bed.vip, ips,
                                    token=LeaderToken(0, "ghost"))

    def test_stale_token_rejected_by_instance(self):
        bed = make_bed()
        bed.run(1.0)
        instance = bed.yoda.instances[0]
        with pytest.raises(StaleLeaderEpoch):
            instance.start_drain(token=LeaderToken(0, "ghost"))


class TestJournaledTakeover:
    def test_drain_started_by_leader_a_completes_under_leader_b(self):
        bed = make_bed()
        fleet = bed.streaming(4, chunks=40, chunk_bytes=1_000,
                              interval_ms=100, start_at=0.2)
        bed.run(1.2)
        rs = bed.yoda.replica_set
        leader_a = rs.acting_replica()
        busy = next(i for i in bed.yoda.instances if i.flows)
        status = leader_a.controller.drain_instance(busy.name, deadline=6.0)
        deadline_at = status.deadline_at
        leader_a.fail()
        bed.run(8.0)
        leader_b = rs.acting_replica()
        assert leader_b is not None and leader_b is not leader_a
        assert leader_b.elector.epoch == 2
        resumed = leader_b.controller._drainer.drains[busy.name]
        # the new leader finished the old leader's drain on the old
        # leader's absolute clock
        assert resumed.done and resumed.state is DrainState.DRAINED
        assert resumed.deadline_at == pytest.approx(deadline_at)
        assert busy.ip not in bed.l4lb.mapping(bed.vip)
        assert leader_b.controller.metrics.counter(
            "drains_completed").value >= 1
        assert fleet.completed() == 4 and fleet.broken() == 0

    def test_takeover_counters_adopted_from_journal(self):
        bed = make_bed()
        bed.run(1.2)
        rs = bed.yoda.replica_set
        leader_a = rs.acting_replica()
        leader_a.controller.drain_instance(bed.yoda.instances[0].name,
                                           deadline=1.0)
        bed.run(2.0)  # drain resolves under leader A
        started = leader_a.controller.metrics.counter("drains_started").value
        leader_a.fail()
        bed.run(4.0)
        leader_b = rs.acting_replica()
        assert leader_b.controller.metrics.counter(
            "drains_started").value >= started

    def test_one_add_vip_is_one_journal_write(self):
        from dataclasses import replace
        bed = make_bed()
        bed.run(2.0)
        leader = bed.yoda.replica_set.acting_replica()
        writes = leader.journal.writes
        bed.yoda.add_service(replace(bed.policy, vip="100.0.0.2"),
                             bed.backends)
        assert "100.0.0.2" in leader.controller.policies
        assert leader.journal.writes == writes + 1


def _arm_autoscaler(bed):
    from repro.autoscale import Autoscaler, ElasticPolicy
    ctl = bed.yoda.controller
    ctl.attach_autoscaler(Autoscaler(ctl, ElasticPolicy(check_interval=0.3)))
    return ctl.autoscaler


# each periodic control pass and the attribute its tick calls
CONTROL_PASSES = {
    "monitor": lambda bed: (bed.yoda.controller, "_monitor_pass"),
    "autoscale": lambda bed: (_arm_autoscaler(bed), "_pass"),
}


class TestMonitorContainment:
    """The controller's one containment boundary (``guarded``), proven
    for both periodic passes that run behind it."""

    @pytest.mark.parametrize("where", sorted(CONTROL_PASSES))
    def test_monitor_keeps_ticking_through_exceptions(self, where):
        from repro.obs import OBS
        bed = make_bed(num_controllers=0)
        ctl = bed.yoda.controller
        owner, attr = CONTROL_PASSES[where](bed)
        bed.run(1.0)
        original, ticks = getattr(owner, attr), []

        def boom():
            ticks.append(bed.loop.now())
            raise RuntimeError("probe wiring torn mid-tick")

        setattr(owner, attr, boom)
        OBS.enable()
        try:
            bed.run(2.0)  # several ticks, none may escape
            records = [detail for _t, kind, detail
                       in OBS.recorders.recorder("controller").events()
                       if kind == f"{where}_error"]
        finally:
            OBS.disable()
        errors = ctl.metrics.counter("monitor_tick_errors").value
        assert len(ticks) >= 2 and errors == len(ticks)
        assert records == ["RuntimeError: probe wiring torn mid-tick"] * len(ticks)
        calls = []
        setattr(owner, attr, lambda: (calls.append(1), original()))
        bed.run(1.0)
        assert calls, "the periodic pass stopped after the fault"
        assert ctl.metrics.counter("monitor_tick_errors").value == errors

    def test_fenced_autoscale_pass_steps_the_replica_down(self):
        bed = make_bed()
        bed.run(2.0)
        leader = bed.yoda.replica_set.acting_replica()
        ctl = leader.controller
        scaler = _arm_autoscaler(bed)

        def fenced():
            raise StaleLeaderEpoch("l4-router", "mapping", 1,
                                   leader.name, 2, "ctl-9")

        scaler._pass = fenced
        bed.run(0.35)  # one autoscale tick
        assert ctl.metrics.counter("pushes_fenced").value == 1
        assert leader.elector.state == "follower"
        assert not leader.acting()


class TestForgetInstance:
    def test_drain_to_spare_then_readd_is_not_a_duplicate(self):
        bed = make_bed(num_controllers=0)
        bed.run(1.0)
        ctl = bed.yoda.controller
        name = bed.yoda.instances[0].name
        ctl.drain_instance(name, deadline=2.0, to_spare=True)
        bed.run(4.0)
        assert name not in ctl.instances
        spare = next(s for s in ctl.spares if s.name == name)
        ctl.spares.remove(spare)
        ctl.add_instance(spare)  # pre-fix: ControllerError("duplicate ...")
        assert name in ctl.instances

    def test_remove_instance_forgets_health_state(self):
        bed = make_bed(num_controllers=0)
        bed.run(1.0)
        ctl = bed.yoda.controller
        name = bed.yoda.instances[0].name
        ctl.remove_instance(name)
        assert name not in ctl.instances
        assert name not in ctl.active
        with pytest.raises(ControllerError, match="unknown instance"):
            ctl.remove_instance(name)


class TestScenarioAndAblation:
    def test_leader_kill_mid_drain_scenario_passes_both_invariants(self):
        from repro.chaos.library import get_scenario
        from repro.chaos.scenario import run_scenario
        outcome = run_scenario(get_scenario("ctrl-leader-kill-mid-drain"),
                               lb="yoda")
        assert outcome.ok
        by_name = {v.invariant: v for v in outcome.verdicts}
        leader = by_name["at-most-one-acting-leader"]
        stability = by_name["control-plane-static-stability"]
        assert leader.ok and leader.checked > 0
        assert stability.ok and stability.checked > 0

    def test_single_controller_ablation_has_unbounded_outage(self):
        from repro.experiments import fig_ctrl
        result = fig_ctrl.run_quick(seed=2016)
        ha, single = result.rows
        assert ha["config"] == "ha-3" and single["config"] == "single"
        assert single["outage_s"] > ha["outage_s"] > 0
        assert single["remap_s"] == "-"  # the dead instance is never removed
        assert isinstance(ha["remap_s"], float)
        assert ha["streams"] == "4/4"
        done, total = single["streams"].split("/")
        assert int(done) < int(total)
