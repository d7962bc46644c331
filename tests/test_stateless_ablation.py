"""The stateless-dispatch trade, pinned from both sides.

The compact fast path buys O(1) dispatch memory by giving up exactly one
thing: per-flow recoverability.  This suite pins the trade in both
directions on the ``double-crash`` schedule -- the stateful run must come
out clean, the stateless run must demonstrably lose established flows --
plus mux-level unit coverage of the stateless dispatch path and the
SNAT-exhaustion pin-release regression.
"""

import dataclasses

import pytest

from repro.chaos.library import get_scenario
from repro.chaos.scenario import run_scenario
from repro.errors import SnatExhausted
from repro.experiments.harness import Testbed, TestbedConfig
from repro.l4lb.compact import CompactDispatchTable
from repro.l4lb.service import L4LoadBalancer
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.net.packet import ACK, SYN, Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

VIP = "100.0.0.1"


def shrunk_double_crash(stateless=False):
    base = get_scenario("double-crash")
    return dataclasses.replace(
        base, clients=2, object_count=3, duration=8.0, drain=6.0,
        yoda=dataclasses.replace(base.yoda, stateless=stateless))


class TestCrashAblation:
    """One schedule, two modes, opposite verdicts -- both pinned."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        stateful = run_scenario(shrunk_double_crash(), lb="yoda", seed=2016)
        stateless = run_scenario(
            shrunk_double_crash(stateless=True),
            lb="yoda", seed=2016)
        return stateful, stateless

    def test_stateful_survives_the_double_crash(self, outcomes):
        stateful, _ = outcomes
        assert stateful.ok, stateful.render()
        assert stateful.stateless is False

    def test_stateless_loses_established_flows(self, outcomes):
        """The ablation's demonstrandum: with no durable flow state, an
        instance crash strands mid-flight flows -- the run must FAIL, and
        specifically on the accepted-work invariants."""
        _, stateless = outcomes
        assert stateless.stateless is True
        assert not stateless.ok, (
            "stateless dispatch survived an instance crash -- either the "
            "mode silently kept durable state or the scenario lost its "
            "teeth:\n" + stateless.render()
        )
        failed = {v.invariant for v in stateless.verdicts if not v.ok}
        assert failed & {"flow-conservation", "no-accepted-request-dropped"}, (
            f"expected mid-flow loss, got failures in {failed or 'nothing'}"
        )

    def test_stateless_audit_counts_are_pinned(self, outcomes):
        """The ablation must keep failing flow-conservation, by exactly
        the flow it failed before the monitors shared one flow-audit
        table (PR 12; values from the commit before).  snat-leak audits
        the 3 live, uncrashed instances: stateless instances allocate and
        release SNAT ports as stateful ones do, so only the durable-state
        audits are waived (it read (0, 0) while it was gated on durable
        state)."""
        _, stateless = outcomes
        assert [(v.invariant, v.checked, v.violation_count)
                for v in stateless.verdicts] == [
            ("storage-before-ack", 0, 0),
            ("acked-byte-loss", 13260, 0),
            ("flow-conservation", 17, 1),
            ("snat-leak", 3, 0),
            ("no-accepted-request-dropped", 17, 1),
            ("replication-factor", 0, 0),
        ]

    def test_stateless_mode_wrote_no_durable_records(self, outcomes):
        """storage-before-ack is waived in stateless mode because there
        is genuinely nothing to audit -- zero checks, not relaxed ones."""
        _, stateless = outcomes
        by_name = {v.invariant: v for v in stateless.verdicts}
        assert by_name["storage-before-ack"].checked == 0
        assert by_name["replication-factor"].checked == 0


@pytest.fixture
def stateless_world():
    loop = EventLoop()
    net = Network(loop, SeededRng(11), default_latency=FixedLatency(0.0002))
    lb = L4LoadBalancer(loop, net, SeededRng(11), num_muxes=1,
                        stateless=True)
    instances = []
    for i in range(3):
        host = net.attach(Host(f"lb-{i}", [f"10.1.0.{i + 1}"]))
        host.got = []
        host.set_handler(lambda p, h=host: h.got.append(p))
        instances.append(host)
    client = net.attach(Host("cli", ["172.16.0.1"]))
    lb.register_vip(VIP)
    lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
    loop.run(until=0.1)
    return loop, net, lb, instances, client


def syn(client_port):
    return Packet(src=Endpoint("172.16.0.1", client_port),
                  dst=Endpoint(VIP, 80), flags=SYN, seq=1)


def ack(client_port):
    return Packet(src=Endpoint("172.16.0.1", client_port),
                  dst=Endpoint(VIP, 80), flags=ACK, seq=2)


class TestStatelessMux:
    def test_syn_dispatch_writes_no_flow_state(self, stateless_world):
        loop, net, lb, instances, client = stateless_world
        for port in range(40000, 40080):
            client.send(syn(port))
        loop.run(until=1.0)
        assert sum(len(i.got) for i in instances) == 80
        assert all(len(m.flow_table) == 0 for m in lb.muxes)

    def test_established_packets_follow_the_table(self, stateless_world):
        loop, net, lb, instances, client = stateless_world
        table = lb.compact_table(VIP)
        port = 40000
        expected = table.lookup(f"172.16.0.1:{port}>{VIP}:80")
        for _ in range(5):
            client.send(ack(port))
        loop.run(until=1.0)
        receiver = next(i for i in instances if i.got)
        assert receiver.ip == expected
        assert len(receiver.got) == 5
        assert all(len(m.flow_table) == 0 for m in lb.muxes)

    def test_drain_materializes_lazy_pin_to_previous_owner(self,
                                                           stateless_world):
        """The one case stateless mode pins: a flow whose table target
        moved off a still-draining instance keeps reaching that instance
        through a lazily-materialized pin."""
        loop, net, lb, instances, client = stateless_world
        old_table = lb.compact_table(VIP)
        draining = instances[2]
        survivors = [i.ip for i in instances[:2]]
        lb.update_mapping(VIP, survivors, draining_ips=[draining.ip],
                          immediate=True)
        loop.run(until=0.2)
        new_table = lb.compact_table(VIP)
        moved_port = next(
            port for port in range(40000, 41000)
            if old_table.lookup(f"172.16.0.1:{port}>{VIP}:80") == draining.ip
            and new_table.lookup(f"172.16.0.1:{port}>{VIP}:80") != draining.ip
        )
        client.send(ack(moved_port))
        loop.run(until=0.5)
        assert len(draining.got) == 1, (
            "established flow was torn off its draining owner"
        )
        flow_key = f"172.16.0.1:{moved_port}>{VIP}:80"
        assert any(flow_key in m.flow_table for m in lb.muxes)

    def test_stale_compact_snapshot_cannot_regress_a_mux(self,
                                                         stateless_world):
        """Version gate: the snapshot swap is all-or-nothing and ordered
        -- a delayed push carrying an older table must be dropped whole."""
        loop, net, lb, instances, client = stateless_world
        mux = lb.muxes[0]
        current = mux.vips[VIP]
        stale = CompactDispatchTable(VIP, current.version - 1, ["10.9.9.9"])
        mux.apply_mapping(VIP, ["10.9.9.9"], current.version - 1,
                          compact=stale)
        entry = mux.vips[VIP]
        assert entry.version == current.version
        assert entry.compact is current.compact
        assert entry.instances == current.instances

    def test_mapping_update_retires_table_to_prev_compact(self,
                                                          stateless_world):
        loop, net, lb, instances, client = stateless_world
        mux = lb.muxes[0]
        old = mux.vips[VIP].compact
        lb.update_mapping(VIP, [i.ip for i in instances[:2]], immediate=True)
        loop.run(until=0.2)
        entry = mux.vips[VIP]
        assert entry.compact is not old
        assert entry.prev_compact is old
        assert entry.compact.version == old.version + 1


class TestSnatExhaustionRelease:
    """Regression: a flow refused on SNAT exhaustion must release its mux
    pin immediately, not squat on the 5-tuple until the idle timeout."""

    def test_release_flow_pops_the_pin(self):
        loop = EventLoop()
        net = Network(loop, SeededRng(5), default_latency=FixedLatency(0.0002))
        lb = L4LoadBalancer(loop, net, SeededRng(5), num_muxes=3)
        host = net.attach(Host("lb-0", ["10.1.0.1"]))
        host.set_handler(lambda p: None)
        client = net.attach(Host("cli", ["172.16.0.1"]))
        lb.register_vip(VIP)
        lb.update_mapping(VIP, ["10.1.0.1"], immediate=True)
        loop.run(until=0.1)
        client.send(syn(40000))
        loop.run(until=0.2)
        flow_key = f"172.16.0.1:40000>{VIP}:80"
        assert any(flow_key in m.flow_table for m in lb.muxes)
        # the instance passes Endpoint-shaped strings (ip:port on both
        # sides), matching the mux's flow-key format
        assert lb.release_flow("172.16.0.1:40000", f"{VIP}:80") is True
        assert not any(flow_key in m.flow_table for m in lb.muxes)
        assert lb.release_flow("172.16.0.1:40000", f"{VIP}:80") is False

    def test_refused_flow_releases_pin_and_rsts_client(self):
        """Drive a real SYN through a testbed whose instances cannot
        allocate SNAT ports: the client must get an RST and the mux pin
        must be gone well before the 60 s idle timeout."""
        bed = Testbed(TestbedConfig(
            seed=7, lb="yoda", num_lb_instances=2, num_store_servers=2,
            num_backends=2, corpus="flat", flat_object_bytes=5_000,
        ))
        for inst in bed.yoda.instances:
            def refuse(vip, _inst=inst):
                raise SnatExhausted(vip, _inst.ip)
            inst.snat_ports.alloc = refuse
        gen = bed.open_loop(rate=20.0, http_timeout=2.0)
        bed.run(1.0)
        gen.stop()
        bed.run(4.0)  # refusals + RSTs resolve; far below idle timeout
        refused = sum(
            inst.metrics.counters["snat_refused_flows"].value
            for inst in bed.yoda.instances
            if "snat_refused_flows" in inst.metrics.counters)
        assert refused > 0, "the exhaustion-refusal path never ran"
        lingering = [
            key for mux in bed.l4lb.muxes for key in mux.flow_table
            if ">100.0.0.1:" in key
        ]
        assert not lingering, (
            f"refused 5-tuples still pinned: {lingering[:4]} -- the "
            f"SnatExhausted teardown is not releasing mux entries"
        )
