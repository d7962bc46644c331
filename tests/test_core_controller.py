"""Controller: monitor detection, VIP lifecycle, scaling decisions."""

import pytest

from repro.autoscale import Autoscaler, ElasticPolicy
from repro.core import controller as controller_module
from repro.core.controller import ControllerHealthView
from repro.core.policy import weighted_split
from repro.errors import ControllerError
from repro.experiments.harness import Testbed, TestbedConfig


def make_bed(**overrides):
    defaults = dict(seed=5, lb="yoda", num_lb_instances=3,
                    num_store_servers=2, num_backends=3, corpus="flat",
                    flat_object_count=2)
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


class TestMonitor:
    def test_instance_failure_detected_within_monitor_interval(self):
        bed = make_bed()
        controller = bed.yoda.controller
        victim = bed.yoda.instances[0]
        victim.fail()
        bed.run(0.7)
        assert victim.name not in controller.live_instance_names()
        assert controller.metrics.counter("instance_failures_detected").value == 1

    def test_failed_instance_removed_from_l4_mapping(self):
        bed = make_bed()
        victim = bed.yoda.instances[0]
        victim.fail()
        bed.run(1.0)
        assert victim.ip not in bed.l4lb.mapping(bed.vip)

    def test_recovered_instance_rejoins_mapping(self):
        bed = make_bed()
        victim = bed.yoda.instances[0]
        victim.fail()
        bed.run(1.0)
        victim.recover()
        bed.run(1.0)
        assert victim.ip in bed.l4lb.mapping(bed.vip)

    def test_backend_failure_reflected_in_health_view(self):
        bed = make_bed()
        bed.backends["srv-1"].fail()
        bed.run(1.0)
        assert not bed.yoda.controller.health_view.is_healthy("srv-1")
        assert bed.yoda.controller.health_view.is_healthy("srv-0")

    def test_dead_memcached_removed_from_ring(self):
        bed = make_bed()
        dead = bed.yoda.store_servers[0]
        dead.fail()
        bed.run(1.0)
        assert dead.name not in bed.yoda.kv_cluster.ring

    def test_memcached_rejoin_on_recovery(self):
        bed = make_bed()
        dead = bed.yoda.store_servers[0]
        dead.fail()
        bed.run(1.0)
        dead.recover()
        bed.run(1.0)
        assert dead.name in bed.yoda.kv_cluster.ring

    def test_health_view_reports_backend_load(self):
        bed = make_bed()
        bed.backends["srv-0"].active_requests = 7
        bed.run(1.0)
        assert bed.yoda.controller.health_view.load("srv-0") == 7.0


class TestHealthViewHysteresis:
    def test_single_failed_probe_does_not_flap(self):
        view = ControllerHealthView()
        view.observe("b", False)
        assert view.is_healthy("b")

    def test_down_after_consecutive_failures(self):
        view = ControllerHealthView()
        view.observe("b", False)
        view.observe("b", False)
        assert not view.is_healthy("b")

    def test_interleaved_success_resets_fail_streak(self):
        view = ControllerHealthView()
        view.observe("b", False)
        view.observe("b", True)
        view.observe("b", False)
        assert view.is_healthy("b")

    def test_up_needs_consecutive_successes(self, monkeypatch):
        monkeypatch.setattr(controller_module, "DOWN_AFTER_PROBES", 1)
        view = ControllerHealthView()
        view.observe("b", False)
        assert not view.is_healthy("b")
        view.observe("b", True)
        assert not view.is_healthy("b")  # one success is not enough
        view.observe("b", True)
        assert view.is_healthy("b")

    def test_lost_probes_do_not_flap_healthy_instances(self):
        # regression for the probe-loss chaos scenario: sporadic dropped
        # probes (below the down_after streak) must not unmap anything
        bed = make_bed()
        controller = bed.yoda.controller
        rng = controller._probe_rng
        interval = controller.monitor_interval / 2  # probe cadence

        real_random = rng.random

        def alternate_rounds():
            # whole probe rounds vanish on alternate ticks: a 50% loss
            # pattern in which no target ever sees down_after=2
            # consecutive losses
            lost = round(bed.loop.now() / interval) % 2 == 0
            return 0.0 if lost else 1.0

        rng.random = alternate_rounds
        controller.probe_loss_rate = 0.5
        try:
            bed.run(3.0)
        finally:
            rng.random = real_random
        assert controller.metrics.counter("probes_lost").value > 0
        assert set(controller.live_instance_names()) == {
            inst.name for inst in bed.yoda.instances
        }
        assert controller.metrics.counter(
            "instance_failures_detected").value == 0

    def test_real_failure_still_detected_under_probe_loss(self):
        bed = make_bed()
        controller = bed.yoda.controller
        controller.probe_loss_rate = 0.3
        victim = bed.yoda.instances[0]
        victim.fail()
        bed.run(3.0)
        assert victim.name not in controller.live_instance_names()


class TestVipLifecycle:
    def test_duplicate_vip_rejected(self):
        bed = make_bed()
        with pytest.raises(ControllerError):
            bed.yoda.controller.add_vip(bed.policy)

    def test_remove_vip_clears_everything(self):
        bed = make_bed()
        bed.yoda.controller.remove_vip(bed.vip)
        bed.run(0.5)
        assert bed.vip not in bed.yoda.controller.policies
        for inst in bed.yoda.instances:
            assert bed.vip not in inst.policies

    def test_remove_unknown_vip_rejected(self):
        bed = make_bed()
        with pytest.raises(ControllerError):
            bed.yoda.controller.remove_vip("100.9.9.9")

    def test_update_policy_bumps_version_on_instances(self):
        bed = make_bed()
        controller = bed.yoda.controller
        old_version = controller.policies[bed.vip].version
        new = controller.policies[bed.vip].updated(
            rules=[weighted_split("w", "*", {"srv-0": 1.0})]
        )
        controller.update_policy(new)
        for inst in bed.yoda.instances:
            assert inst.policies[bed.vip].version == old_version + 1

    def test_update_unknown_policy_rejected(self):
        from repro.core.policy import VipPolicy
        from repro.net.addresses import Endpoint

        bed = make_bed()
        ghost = VipPolicy(vip="100.9.9.9",
                          backends={"x": Endpoint("10.3.0.1", 80)},
                          rules=[weighted_split("w", "*", {"x": 1.0})])
        with pytest.raises(ControllerError):
            bed.yoda.controller.update_policy(ghost)


class TestInstanceLifecycle:
    def test_add_instance_joins_all_vips(self):
        bed = make_bed()
        spare = bed.yoda.new_spare_instance()
        bed.yoda.controller.add_instance(spare)
        bed.run(0.5)
        assert spare.ip in bed.l4lb.mapping(bed.vip)
        assert bed.vip in spare.policies

    def test_remove_instance_leaves_mapping(self):
        bed = make_bed()
        name = bed.yoda.instances[0].name
        bed.yoda.controller.remove_instance(name)
        bed.run(0.5)
        assert bed.yoda.instances[0].ip not in bed.l4lb.mapping(bed.vip)

    def test_remove_unknown_instance_rejected(self):
        bed = make_bed()
        with pytest.raises(ControllerError):
            bed.yoda.controller.remove_instance("ghost")

    def test_duplicate_instance_rejected(self):
        bed = make_bed()
        with pytest.raises(ControllerError):
            bed.yoda.controller.add_instance(bed.yoda.instances[0])


class TestAutoscaling:
    def test_scales_up_when_hot(self):
        bed = make_bed()
        controller = bed.yoda.controller
        spare = bed.yoda.new_spare_instance()
        controller.attach_autoscaler(Autoscaler(controller, ElasticPolicy(
            high_watermark=0.5, target=0.4, check_interval=1.0, drain=False,
        )))
        # keep every live instance artificially hot
        def burn():
            for name in controller.live_instance_names():
                controller.instances[name].cpu.execute(0.08)
            bed.loop.call_later(0.1, burn)

        burn()
        bed.run(3.0)
        assert controller.metrics.counter("scaled_up").value >= 1
        assert spare.ip in bed.l4lb.mapping(bed.vip)

    def test_no_scale_up_when_idle(self):
        bed = make_bed()
        controller = bed.yoda.controller
        bed.yoda.new_spare_instance()
        controller.attach_autoscaler(Autoscaler(controller, ElasticPolicy(
            check_interval=1.0, drain=False)))
        bed.run(5.0)
        assert controller.metrics.counter("scaled_up").value == 0
