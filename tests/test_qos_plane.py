"""The overload-control plane: admission units, the concurrency ceiling, SNAT
exhaustion, SYN-stage shedding, and drain-based scale-in."""

import pytest

from repro.core import YodaServiceConfig
from repro.errors import SnatExhausted
from repro.experiments.harness import Testbed, TestbedConfig
from repro.l4lb import snat
from repro.l4lb.snat import SnatAllocator
from repro.qos.admission import AdmissionController, TokenBucket
from repro.qos import concurrency
from repro.qos.concurrency import ConcurrencyLimiter
from repro.qos.config import QosConfig
from repro.qos.plane import InstanceQos
from repro.sim.metrics import MetricRegistry


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=10.0, capacity=5.0, now=0.0)
        assert bucket.level(0.0) == 1.0
        for _ in range(5):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_lazy_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=5.0, now=0.0)
        for _ in range(5):
            bucket.try_take(0.0)
        assert bucket.try_take(0.2)  # 2 tokens refilled
        assert bucket.level(100.0) == 1.0  # capped

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=5.0, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0, now=0.0)


class TestAdmission:
    def test_disabled_rate_admits_everything(self):
        ctl = AdmissionController(QosConfig())  # admission_rate=None
        for i in range(1000):
            assert ctl.admit("1.2.3.4", "172.16.0.1", float(i)).admitted
        assert ctl.admitted == 1000 and not ctl.shed_by_reason

    def test_rate_shed_when_bucket_empty(self):
        ctl = AdmissionController(QosConfig(admission_rate=10.0,
                                            admission_burst=3.0))
        decisions = [ctl.admit("v", "172.16.0.1", 0.0) for _ in range(5)]
        assert [d.admitted for d in decisions] == [True] * 3 + [False] * 2
        assert decisions[-1].reason == "rate"
        assert ctl.shed_by_reason == {"rate": 2}

    def test_tier_classification_first_match_wins(self):
        ctl = AdmissionController(QosConfig(
            client_tiers=(("172.16.9.", 2), ("172.16.", 1))))
        assert ctl.classify("172.16.9.5") == 2
        assert ctl.classify("172.16.0.5") == 1
        assert ctl.classify("10.0.0.1") == 0

    def test_low_tier_shed_at_floor_high_tier_admitted(self):
        cfg = QosConfig(admission_rate=10.0, admission_burst=10.0,
                        tier_floors=(0.0, 0.0, 0.6),
                        client_tiers=(("172.16.9.", 2),))
        ctl = AdmissionController(cfg)
        # drain the bucket to 50% with tier-0 traffic
        for _ in range(5):
            assert ctl.admit("v", "172.16.0.1", 0.0).admitted
        refused = ctl.admit("v", "172.16.9.1", 0.0)
        assert not refused.admitted
        assert refused.reason == "tier" and refused.tier == 2
        # tier 0 still gets the reserved tokens
        assert ctl.admit("v", "172.16.0.1", 0.0).admitted

    def test_buckets_are_per_vip(self):
        ctl = AdmissionController(QosConfig(admission_rate=10.0,
                                            admission_burst=1.0))
        assert ctl.admit("vip-a", "c", 0.0).admitted
        assert not ctl.admit("vip-a", "c", 0.0).admitted
        assert ctl.admit("vip-b", "c", 0.0).admitted


class TestLimiter:
    def test_acquire_release_bounds_inflight(self, monkeypatch):
        monkeypatch.setattr(concurrency, "LIMITER_CEILING", 2)
        lim = ConcurrencyLimiter()
        assert lim.try_acquire() and lim.try_acquire()
        assert not lim.try_acquire()
        lim.release()
        assert lim.try_acquire()


class TestInstanceQos:
    def make(self, **kw):
        return InstanceQos(QosConfig(**kw), clock=lambda: 0.0,
                           metrics=MetricRegistry("test"), name="yoda-t")

    def test_concurrency_refusal_and_release(self, monkeypatch):
        monkeypatch.setattr(concurrency, "LIMITER_CEILING", 1)
        qos = self.make()
        assert qos.admit_syn("v", "172.16.0.1").admitted
        refused = qos.admit_syn("v", "172.16.0.1")
        assert not refused.admitted and refused.reason == "concurrency"
        qos.release_slot()
        assert qos.admit_syn("v", "172.16.0.1").admitted

    def test_view_is_cached_per_inner(self):
        qos = self.make()
        inner = object.__new__(object)
        assert qos.view(inner) is qos.view(inner)


class TestSnatExhaustion:
    def test_exhaustion_is_typed_and_counted(self, monkeypatch):
        monkeypatch.setattr(snat, "SNAT_BASE_PORT", 60000)
        alloc = SnatAllocator()
        alloc.ensure_range("vip", "10.1.0.1")  # [60000, 63000)
        with pytest.raises(SnatExhausted) as exc:
            alloc.ensure_range("vip", "10.1.0.2")  # would cross 65000
        assert exc.value.vip == "vip"
        assert exc.value.instance_ip == "10.1.0.2"
        assert "SNAT port space exhausted" in str(exc.value)
        assert alloc.exhaustions == 1
        # other VIPs have their own port space
        assert alloc.ensure_range("vip2", "10.1.0.2") == (60000, 63000)

    def test_default_range_fills_after_21_instances(self):
        alloc = SnatAllocator()
        for i in range(21):  # (65000 - 1024) // 3000
            alloc.ensure_range("vip", f"10.1.0.{i + 1}")
        with pytest.raises(SnatExhausted):
            alloc.ensure_range("vip", "10.1.0.99")


def small_bed(yoda=None, **overrides):
    defaults = dict(
        seed=11, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=2, corpus="flat", flat_object_bytes=40_000,
        flat_object_count=4, yoda=yoda,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


class TestShedding:
    def test_overload_is_shed_at_syn_time_with_fast_rsts(self):
        bed = small_bed(YodaServiceConfig(qos=QosConfig(
            admission_rate=4.0, admission_burst=4.0)))
        gen = bed.open_loop(rate=80.0, http_timeout=5.0)
        bed.run(2.0)
        gen.stop()
        bed.run(1.0)
        sheds = sum(
            inst.metrics.counters["syns_shed"].value
            for inst in bed.yoda.instances
            if "syns_shed" in inst.metrics.counters
        )
        assert sheds > 0
        assert gen.failure_count() > 0  # refusals are client-visible...
        assert gen.ok_count() > 0  # ...but admitted requests complete
        # a shed is a stateless RST: the client learns immediately, it
        # does not burn the 5 s timeout
        slowest = max(r.latency for r in gen.results if not r.ok)
        assert slowest < 1.0

    def test_idle_qos_never_sheds(self):
        bed = small_bed(YodaServiceConfig(qos=QosConfig()))
        gen = bed.open_loop(rate=20.0)
        bed.run(2.0)
        gen.stop()
        bed.run(1.0)
        assert gen.failure_count() == 0
        for inst in bed.yoda.instances:
            assert "syns_shed" not in inst.metrics.counters


class TestDrain:
    def test_graceful_drain_completes_and_breaks_nothing(self):
        bed = small_bed()
        procs = bed.closed_loop(2, http_timeout=5.0)
        bed.run(1.0)
        victim = bed.yoda.instances[0]
        status = bed.yoda.controller.drain_instance(victim.name)
        bed.run(6.0)
        for proc in procs:
            proc.stop()
        bed.run(3.0)
        assert status.done and status.state.value == "drained"
        ctl = bed.yoda.controller
        assert ctl.metrics.counters["drains_completed"].value == 1
        assert victim.name not in ctl.live_instance_names()
        assert not victim.flows
        assert sum(p.broken_pages for p in procs) == 0
        assert sum(p.pages_loaded for p in procs) > 0

    def test_deadline_forces_handoff_without_breaking_flows(self):
        # huge objects: transfers outlive the deadline, so the drain is
        # forced and the remaining flows migrate through TCPStore
        bed = small_bed(flat_object_bytes=3_000_000, num_lb_instances=2,
                        client_one_way_latency=0.080)
        procs = bed.closed_loop(2, http_timeout=30.0)
        bed.run(1.0)
        victim = bed.yoda.instances[0]
        had_flows = len(victim.flows)
        status = bed.yoda.controller.drain_instance(victim.name, deadline=0.5)
        bed.run(20.0)
        for proc in procs:
            proc.stop()
        bed.run(8.0)
        ctl = bed.yoda.controller
        if had_flows:
            assert status.state.value == "forced"
            assert status.flows_handed_off > 0
            assert ctl.metrics.counters["drains_forced"].value == 1
        assert sum(p.broken_pages for p in procs) == 0
        assert sum(p.pages_loaded for p in procs) > 0

    def test_cannot_drain_the_last_instance(self):
        bed = small_bed(num_lb_instances=1)
        with pytest.raises(Exception):
            bed.yoda.controller.drain_instance(bed.yoda.instances[0].name)

    def test_draining_instance_refuses_new_syns_silently(self):
        bed = small_bed()
        victim = bed.yoda.instances[0]
        victim.start_drain()
        assert victim.draining


class TestFlashCrowdScenario:
    def test_flash_crowd_passes_with_real_shedding(self):
        from repro.chaos.library import get_scenario
        from repro.chaos.scenario import ScenarioEngine

        engine = ScenarioEngine(get_scenario("flash-crowd"), lb="yoda",
                                seed=2016)
        outcome = engine.run()
        assert outcome.ok, outcome.render()
        sheds = sum(
            inst.metrics.counters["syns_shed"].value
            for inst in engine.bed.yoda.instances
            if "syns_shed" in inst.metrics.counters
        )
        assert sheds > 100  # the surge was genuinely refused
        ctl = engine.bed.yoda.controller.metrics.counters
        assert ctl["drains_completed"].value == 1
        nar = next(v for v in outcome.verdicts
                   if v.invariant == "no-accepted-request-dropped")
        assert nar.ok and nar.checked > 0
        # per-invariant audit counts, pinned at the commit before the
        # monitors were folded onto one flow-audit table (PR 12): the
        # shared table must judge exactly the packets the two tables did
        assert {v.invariant: (v.checked, v.violation_count)
                for v in outcome.verdicts} == {
            "storage-before-ack": (930, 0),
            "acked-byte-loss": (27517, 0),
            "flow-conservation": (1044, 0),
            "snat-leak": (3, 0),
            "no-accepted-request-dropped": (465, 0),
            "replication-factor": (929, 0),
        }


class TestChaosListCli:
    def test_list_flag(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "store-partition" in out
        assert "surge" in out  # timelines are printed too

    def test_bare_chaos_lists_instead_of_crashing(self, capsys):
        from repro.cli import main

        assert main(["chaos"]) == 0
        assert "flash-crowd" in capsys.readouterr().out
