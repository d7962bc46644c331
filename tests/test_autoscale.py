"""repro.autoscale: policy arithmetic, engine actuation, journal replay.

The policy tests are pure (snapshots in, decisions out); the engine
tests run against a real wired deployment so spare adoption, drains and
store-membership bumps exercise the actual control plane.
"""

import math

from repro.autoscale import (
    Autoscaler,
    ElasticPolicy,
    PolicyEngine,
    SignalSnapshot,
)
from repro.chaos.library import get_scenario
from repro.core import YodaServiceConfig
from repro.core.leader import journal_state
from repro.experiments.harness import Testbed, TestbedConfig


def snap(time=0.0, live=3, cpu=0.5, admission=0.0, limiter=0.0):
    return SignalSnapshot(
        time=time, live=live, avg_cpu=cpu, max_cpu=cpu,
        admission_pressure=admission, limiter_saturation=limiter,
    )


def make_bed(spare_instances=0, autoscale=None, **overrides) -> Testbed:
    defaults = dict(
        seed=7, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=3, corpus="flat", flat_object_count=2,
        yoda=YodaServiceConfig(spare_instances=spare_instances,
                               autoscale=autoscale),
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


# =============================================================== policy ==
class TestHysteresis:
    def test_in_band_holds(self):
        eng = PolicyEngine(ElasticPolicy(scale_down=True))
        decision = eng.decide(snap(cpu=0.5))
        assert decision.kind == "hold"
        assert decision.reason == "in band"

    def test_pressure_above_high_scales_out(self):
        eng = PolicyEngine(ElasticPolicy())
        decision = eng.decide(snap(cpu=0.9))
        assert decision.kind == "out"
        assert decision.count >= 1

    def test_idle_below_low_scales_in_only_when_armed(self):
        idle = snap(cpu=0.1, live=3)
        held = PolicyEngine(ElasticPolicy(scale_down=False)).decide(idle)
        assert held.kind == "hold"
        moved = PolicyEngine(ElasticPolicy(scale_down=True)).decide(idle)
        assert moved.kind == "in"

    def test_secondary_admission_signal_trips_scale_out(self):
        eng = PolicyEngine(ElasticPolicy(admission_pressure_high=0.4))
        decision = eng.decide(snap(cpu=0.3, admission=0.8))
        assert decision.kind == "out"
        assert "admission" in decision.reason

    def test_secondary_pressure_blocks_scale_in(self):
        eng = PolicyEngine(ElasticPolicy(
            scale_down=True, admission_pressure_high=0.4))
        # CPU looks idle but the buckets are half depleted: hold
        decision = eng.decide(snap(cpu=0.1, admission=0.3, live=3))
        assert decision.kind == "hold"


class TestSizing:
    def test_target_sizing_rule(self):
        # the legacy Fig. 13 arithmetic: live * cpu / target, ceil'd
        eng = PolicyEngine(ElasticPolicy(target=0.55))
        decision = eng.decide(snap(cpu=0.9, live=4))
        assert decision.count == math.ceil(4 * 0.9 / 0.55) - 4  # +3

    def test_always_moves_at_least_one(self):
        # pressure with a sizing formula that rounds to "stay": still +1
        eng = PolicyEngine(ElasticPolicy(high_watermark=0.70, target=0.75))
        decision = eng.decide(snap(cpu=0.72, live=4))
        assert decision.kind == "out"
        assert decision.count == 1

    def test_step_out_caps_additions(self):
        eng = PolicyEngine(ElasticPolicy(target=0.3, step_out=2))
        decision = eng.decide(snap(cpu=0.95, live=6))
        assert decision.count == 2

    def test_ceiling_caps_and_then_holds(self):
        eng = PolicyEngine(ElasticPolicy(target=0.3, max_instances=5))
        assert eng.decide(snap(cpu=0.95, live=4)).count == 1
        decision = eng.decide(snap(cpu=0.95, live=5))
        assert decision.kind == "hold"
        assert decision.reason == "at max_instances"

    def test_scale_in_step_and_floor(self):
        eng = PolicyEngine(ElasticPolicy(
            scale_down=True, step_in=2, min_instances=2))
        assert eng.decide(snap(cpu=0.1, live=5)).count == 2
        # floor clamps the step
        assert eng.decide(snap(cpu=0.1, live=3)).count == 1
        assert eng.decide(snap(cpu=0.1, live=2)).kind == "hold"


class TestCooldowns:
    def test_cooldown_out_refuses_then_expires(self):
        eng = PolicyEngine(ElasticPolicy(cooldown_out=5.0))
        assert eng.decide(snap(time=10.0, cpu=0.9)).kind == "out"
        eng.last_out_at = 10.0
        held = eng.decide(snap(time=12.0, cpu=0.9))
        assert held.kind == "hold"
        assert "cooldown-out" in held.reason
        assert eng.refusals == 1
        assert eng.decide(snap(time=15.1, cpu=0.9)).kind == "out"

    def test_scale_in_cools_down_after_any_event(self):
        # a scale-OUT also arms the scale-in cooldown: releasing capacity
        # right after adding it is the flap the converge invariant forbids
        eng = PolicyEngine(ElasticPolicy(scale_down=True, cooldown_in=8.0))
        eng.last_out_at = 10.0
        held = eng.decide(snap(time=14.0, cpu=0.1, live=4))
        assert held.kind == "hold"
        assert "cooldown-in" in held.reason
        assert eng.decide(snap(time=18.1, cpu=0.1, live=4)).kind == "in"


class TestPolicyJournal:
    def test_clock_roundtrip(self):
        eng = PolicyEngine(ElasticPolicy())
        eng.last_out_at, eng.last_in_at = 12.5, 30.0
        fresh = PolicyEngine(ElasticPolicy())
        fresh.restore(eng.journal_state())
        assert fresh.last_out_at == 12.5
        assert fresh.last_in_at == 30.0


# =============================================================== engine ==
def quiet_policy(**overrides):
    """A policy whose periodic ticks always hold."""
    defaults = dict(high_watermark=10.0, low_watermark=-1.0,
                    drain_deadline=3.0, min_instances=1)
    defaults.update(overrides)
    return ElasticPolicy(**defaults)


def out_policy():
    """A policy whose every tick adds one instance (an idle deployment's
    CPU is above a negative watermark)."""
    return quiet_policy(high_watermark=-1.0)


def in_policy():
    """A policy whose every tick drains one instance."""
    return quiet_policy(low_watermark=2.0, scale_down=True)


class TestSpareAdoption:
    def test_scale_out_adopts_spare_into_mapping(self):
        bed = make_bed(spare_instances=2)
        ctl = bed.yoda.controller
        scaler = Autoscaler(ctl, out_policy())
        spare = ctl.spares[0]
        scaler.tick()
        bed.run(1.0)
        assert spare.name in ctl.active
        assert spare.ip in bed.l4lb.mapping(bed.vip)
        assert [e.kind for e in scaler.events] == ["out"]

    def test_no_double_adoption_of_same_spare(self):
        bed = make_bed(spare_instances=2)
        ctl = bed.yoda.controller
        scaler = Autoscaler(ctl, out_policy())
        scaler.tick()
        scaler.tick()
        bed.run(1.0)
        assert not ctl.spares
        adopted = [n for n in ctl.instances if ctl.active.get(n)]
        assert len(adopted) == len(set(adopted)) == 5


class TestDrainRaces:
    def test_scale_out_allowed_after_drain_completes(self):
        bed = make_bed(spare_instances=1, num_lb_instances=4)
        ctl = bed.yoda.controller
        scaler = Autoscaler(ctl, out_policy())
        victim = next(iter(ctl.active))
        ctl.drain_instance(victim, deadline=1.0, to_spare=True)
        bed.run(3.0)
        assert not ctl.draining
        scaler.tick()
        assert scaler.events[-1].kind == "out"

    def test_scale_in_drains_make_before_break_to_spare(self):
        bed = make_bed(num_lb_instances=4)
        ctl = bed.yoda.controller
        scaler = Autoscaler(ctl, in_policy())
        scaler.tick()
        assert len(ctl.draining) == 1
        drained = next(iter(ctl.draining))
        bed.run(5.0)
        assert not ctl.draining
        assert any(s.name == drained for s in ctl.spares)


class TestStoreScaling:
    def test_membership_grows_with_instance_pool(self):
        policy = quiet_policy(
            check_interval=0.2, scale_stores=True,
            instances_per_store=1, min_stores=2, max_stores=4)
        bed = make_bed(num_lb_instances=3, num_store_servers=2,
                       autoscale=policy)
        cluster = bed.yoda.kv_cluster
        bed.run(1.0)
        # target ceil(3/1)=3 capped by max_stores; one move per tick,
        # and the add bumped the membership epoch (anti-entropy trigger)
        assert len(cluster.servers) == 3
        assert cluster.epoch >= 1
        scaler = bed.yoda.autoscalers[0]
        assert any(e.kind == "store-out" for e in scaler.events)


class TestEngineJournal:
    def test_events_and_clocks_survive_restore(self):
        bed = make_bed(spare_instances=1)
        ctl = bed.yoda.controller
        scaler = Autoscaler(ctl, out_policy())
        scaler.tick()
        state = scaler.journal_state()
        assert state["event_count"] == 1

        heir = Autoscaler(ctl, quiet_policy())
        heir.restore(state)
        assert [e.kind for e in heir.events] == ["out"]
        assert heir.engine.last_out_at == scaler.engine.last_out_at

    def test_controller_journal_carries_autoscale_section(self):
        bed = make_bed(spare_instances=1)
        ctl = bed.yoda.controller
        ctl.attach_autoscaler(Autoscaler(ctl, quiet_policy()))
        assert "autoscale" in journal_state(ctl)


# ========================================================= regressions ==
class TestScaleChurnRegressions:
    """Bugs found running the elastic benchmark: every one of these cost
    a scale-churned flow a SYN-RTO (3 s) or an RST, blowing the SLO."""

    def test_snat_cursor_clamped_after_block_reassignment(self):
        # drain-to-spare releases the block; an interloper claims it
        # before this instance is re-adopted.  The stale cursor must not
        # mint ports inside what is now the interloper's block (return
        # traffic would route to the wrong owner and both connects wedge
        # in SERVER_SYN_SENT).
        bed = make_bed()
        inst = bed.yoda.instances[0]
        snat = bed.l4lb.snat
        first = inst.snat_ports.alloc(bed.vip)
        lo_old, hi_old = snat.ensure_range(bed.vip, inst.ip)  # the block held
        assert lo_old <= first < hi_old
        snat.release(bed.vip, inst.ip)
        snat.ensure_range(bed.vip, "10.9.9.9")  # takes the freed block
        lo_new, hi_new = snat.ensure_range(bed.vip, inst.ip)
        assert (lo_new, hi_new) != (lo_old, hi_old)
        port = inst.snat_ports.alloc(bed.vip)
        assert lo_new <= port < hi_new

    def test_graceful_drain_flushes_mux_flow_pins(self):
        # a graceful drain's flows are complete, but the muxes pin their
        # 5-tuples until idle timeout; a stale server-side pin steers the
        # NEXT owner of the reallocated snat block's SYN-ACKs at this
        # parked spare, which RSTs them
        from repro.l4lb.mux import _FlowEntry

        bed = make_bed(num_lb_instances=4)
        ctl = bed.yoda.controller
        victim = bed.yoda.instances[0]
        mux = bed.l4lb.muxes[0]
        key = "10.3.0.1:80>100.0.0.1:40123"
        mux.flow_table[key] = _FlowEntry(victim.ip, bed.loop.now(), key)
        ctl.drain_instance(victim.name, deadline=2.0, to_spare=True)
        bed.run(4.0)
        assert not ctl.draining
        assert all(e.instance_ip != victim.ip
                   for e in mux.flow_table.values())

    def test_drain_grace_accepts_syn_then_refuses(self):
        # the drain push needs a propagation round-trip to pull the
        # instance from every mux ring; a SYN ring-routed here inside
        # that window must be served, not dropped (a refused SYN costs
        # the client a full 3 s SYN-RTO -- an SLO miss by itself)
        from repro.core.instance import DRAIN_SYN_GRACE, flow_key
        from repro.net.addresses import Endpoint
        from repro.net.packet import SYN, Packet

        bed = make_bed()
        inst = bed.yoda.instances[0]
        inst.start_drain()

        early = Packet(src=Endpoint("172.16.0.9", 5555),
                       dst=Endpoint(bed.vip, 80), flags=SYN, seq=100)
        inst._dispatch(early)
        assert flow_key(early.src, early.dst) in inst.flows

        bed.run(DRAIN_SYN_GRACE + 0.1)
        late = Packet(src=Endpoint("172.16.0.10", 5555),
                      dst=Endpoint(bed.vip, 80), flags=SYN, seq=200)
        inst._dispatch(late)
        assert flow_key(late.src, late.dst) not in inst.flows
        assert inst.metrics.counter("syns_refused_draining").value == 1


# =========================================================== scenarios ==
class TestChaosRegistration:
    def test_flash_crowd_autoscale_registered_and_armed(self):
        scenario = get_scenario("flash-crowd-autoscale")
        assert scenario.yoda.autoscale is not None
        assert scenario.yoda.spare_instances > 0
        # the surge trips the qos signal before CPU moves
        assert scenario.yoda.autoscale.admission_pressure_high is not None

    def test_scale_in_during_region_kill_registered(self):
        scenario = get_scenario("scale-in-during-region-kill")
        assert scenario.yoda.autoscale is not None
        assert scenario.yoda.autoscale.scale_down
        assert scenario.yoda.region is not None
