"""Invariant monitor: synthetic-trace audits and the trace digest."""

import hashlib

import pytest

from repro.chaos.invariants import (
    FlowAuditTable,
    InvariantMonitor,
    NoAcceptedRequestDropped,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import ACK, FIN, PSH, RST, SYN, Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

CLIENT = "172.16.0.1:40000"
FLAG_BITS = {"S": SYN, "F": FIN, "R": RST, "P": PSH, ".": ACK}


def make_bed(**overrides):
    defaults = dict(seed=3, lb="yoda", num_lb_instances=2,
                    num_store_servers=2, num_backends=2, corpus="flat",
                    flat_object_count=2)
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def rec(time, src, dst, flags, seq=0, ack=0, payload_len=0, dropped=False):
    """One wire transmission, as the network hands it to a wire-packet tap:
    ``table.record(*rec(...))``."""
    packet = Packet(src=Endpoint.parse(src), dst=Endpoint.parse(dst),
                    flags=sum(FLAG_BITS[f] for f in flags), seq=seq, ack=ack,
                    payload=b"x" * payload_len)
    return time, packet, dropped


def feed_clean_flow(monitor, vip_ep, t0=0.0, isn=1000, req=100, resp=500):
    monitor.table.record(*rec(t0, CLIENT, vip_ep, "S", seq=isn))
    monitor.table.record(*rec(t0 + 0.01, vip_ep, CLIENT, "S.", seq=5000, ack=isn + 1))
    monitor.table.record(*rec(t0 + 0.02, CLIENT, vip_ep, ".", seq=isn + 1,
                       payload_len=req))
    monitor.table.record(*rec(t0 + 0.03, vip_ep, CLIENT, ".", seq=5001,
                       ack=isn + 1 + req, payload_len=resp))
    monitor.table.record(*rec(t0 + 0.04, vip_ep, CLIENT, "F.", seq=5001 + resp,
                       ack=isn + 1 + req))
    monitor.table.record(*rec(t0 + 0.05, CLIENT, vip_ep, "F.", seq=isn + 1 + req,
                       ack=5002 + resp))


@pytest.fixture
def monitor_world():
    bed = make_bed()
    monitor = InvariantMonitor(bed, check_storage=False)
    return bed, monitor, f"{bed.vip}:80"


class TestAckedByteLoss:
    def test_clean_flow_has_no_violations(self, monitor_world):
        bed, monitor, vip_ep = monitor_world
        feed_clean_flow(monitor, vip_ep)
        verdicts = {v.invariant: v for v in monitor.finalize(strict_before=1.0)}
        assert verdicts["acked-byte-loss"].ok
        assert verdicts["flow-conservation"].ok
        assert verdicts["flow-conservation"].checked == 1

    def test_rst_after_acked_bytes_is_a_violation(self, monitor_world):
        _, monitor, vip_ep = monitor_world
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=1001))
        monitor.table.record(*rec(0.02, CLIENT, vip_ep, ".", seq=1001, payload_len=80))
        monitor.table.record(*rec(0.03, vip_ep, CLIENT, ".", seq=5001, ack=1081))
        monitor.table.record(*rec(0.04, vip_ep, CLIENT, "R.", seq=5001, ack=1081))
        verdicts = {v.invariant: v for v in monitor.finalize()}
        assert not verdicts["acked-byte-loss"].ok
        assert "80 request bytes" in str(verdicts["acked-byte-loss"].violations[0])

    def test_rst_before_any_ack_is_permitted(self, monitor_world):
        _, monitor, vip_ep = monitor_world
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "R.", seq=0, ack=1001))
        verdicts = {v.invariant: v for v in monitor.finalize()}
        assert verdicts["acked-byte-loss"].ok


class TestFlowConservation:
    def test_unfinished_flow_is_a_violation(self, monitor_world):
        _, monitor, vip_ep = monitor_world
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=1001))
        verdicts = {v.invariant: v for v in monitor.finalize(strict_before=1.0)}
        assert not verdicts["flow-conservation"].ok

    def test_late_flows_are_not_judged(self, monitor_world):
        _, monitor, vip_ep = monitor_world
        monitor.table.record(*rec(5.0, CLIENT, vip_ep, "S", seq=1000))
        verdicts = {v.invariant: v for v in monitor.finalize(strict_before=1.0)}
        assert verdicts["flow-conservation"].ok
        assert verdicts["flow-conservation"].checked == 0


class TestSharedFlowAuditTable:
    """Both packet invariants judge one table, updated once per packet."""

    def test_nar_reads_the_monitors_table(self, monitor_world):
        bed, monitor, vip_ep = monitor_world
        nar = NoAcceptedRequestDropped(bed, monitor.table)
        feed_clean_flow(monitor, vip_ep)
        assert list(monitor.table.flows) == [(CLIENT, vip_ep)]
        verdict = nar.finalize(strict_before=1.0)
        assert verdict.ok and verdict.checked == 1

    def test_accepted_then_reset_fails_both_invariants_once_each(
            self, monitor_world):
        bed, monitor, vip_ep = monitor_world
        nar = NoAcceptedRequestDropped(bed, monitor.table)
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=1001))
        monitor.table.record(*rec(0.02, vip_ep, CLIENT, ".", seq=5001, ack=1081))
        monitor.table.record(*rec(0.03, vip_ep, CLIENT, "R.", seq=5001, ack=1081))
        monitor.table.record(*rec(0.04, vip_ep, CLIENT, "R.", seq=5001, ack=1081))
        by_name = {v.invariant: v for v in monitor.finalize(strict_before=1.0)}
        # acked-byte-loss judges every RST, the accepted-work invariant
        # only the first -- the hook sees the flow before the RST lands
        assert by_name["acked-byte-loss"].violation_count == 2
        verdict = nar.finalize(strict_before=1.0)
        assert verdict.violation_count == 1
        assert verdict.violations[0].flow == f"{CLIENT}>{vip_ep}"
        assert "80 request bytes" in verdict.violations[0].detail

    def test_syn_stage_shed_is_not_an_accepted_request(self, monitor_world):
        bed, monitor, vip_ep = monitor_world
        nar = NoAcceptedRequestDropped(bed, monitor.table)
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "R.", seq=0, ack=1001))
        verdict = nar.finalize(strict_before=1.0)
        assert verdict.ok and verdict.checked == 0

    def test_table_alone_is_a_wire_tx_tap(self):
        bed = make_bed()
        table = bed.network.add_trace(FlowAuditTable(bed))
        nar = NoAcceptedRequestDropped(bed, table)
        bed.closed_loop(1)
        bed.run(2.0)
        assert table.flows and table.acks_audited > 0
        assert table in bed.network._packet_taps
        assert table not in bed.network._wire_tx_taps
        assert table not in bed.network._all_taps
        assert nar.finalize().ok


class TestStorageBeforeAck:
    def test_synack_without_durable_record_is_a_violation(self):
        bed = make_bed()
        monitor = InvariantMonitor(bed)  # yoda bed: storage checks on
        vip_ep = f"{bed.vip}:80"
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=1001))
        verdicts = {v.invariant: v for v in monitor.finalize()}
        assert not verdicts["storage-before-ack"].ok

    def test_synack_with_durable_record_passes(self):
        bed = make_bed()
        monitor = InvariantMonitor(bed)
        vip_ep = f"{bed.vip}:80"
        key = f"yoda:c:{CLIENT}:{vip_ep}"
        bed.yoda.store_servers[0]._set(key, b"state")
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=1001))
        verdicts = {v.invariant: v for v in monitor.finalize()}
        assert verdicts["storage-before-ack"].ok
        assert verdicts["storage-before-ack"].checked == 1

    def test_record_on_failed_store_does_not_count(self):
        bed = make_bed()
        monitor = InvariantMonitor(bed)
        vip_ep = f"{bed.vip}:80"
        key = f"yoda:c:{CLIENT}:{vip_ep}"
        bed.yoda.store_servers[0]._set(key, b"state")
        bed.yoda.store_servers[0].fail()
        monitor.table.record(*rec(0.0, CLIENT, vip_ep, "S", seq=1000))
        monitor.table.record(*rec(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=1001))
        verdicts = {v.invariant: v for v in monitor.finalize()}
        assert not verdicts["storage-before-ack"].ok


class TestSnatLeak:
    def test_quiesced_bed_has_no_leaks(self):
        bed = make_bed()
        monitor = InvariantMonitor(bed)
        verdicts = {v.invariant: v for v in monitor.finalize()}
        assert verdicts["snat-leak"].ok
        assert verdicts["snat-leak"].checked == len(bed.yoda.instances)

    def test_excluded_instances_are_skipped(self):
        bed = make_bed()
        monitor = InvariantMonitor(bed)
        excluded = bed.yoda.instances[0].name
        verdicts = {v.invariant: v for v in monitor.finalize(
            exclude_instances=[excluded])}
        assert verdicts["snat-leak"].checked == len(bed.yoda.instances) - 1


class DigestWorld:
    """The smallest network that keeps a run digest: a client and the VIP
    owner; :meth:`send` puts a packet on the wire at ``time``."""

    def __init__(self):
        self.loop = EventLoop()
        self.network = Network(self.loop, SeededRng(1))
        self.client = self.network.attach(Host("client", ["172.16.0.1"]))
        self.lb = self.network.attach(Host("yoda-0", ["10.0.0.1"]))
        self.network.start_digest()

    def send(self, time, src, dst, flags, **fields):
        _, packet, _ = rec(time, src, dst, flags, **fields)
        sender = self.client if src == CLIENT else self.lb
        self.loop.call_at(time, self.network.transmit, sender, packet)

    def digest(self):
        self.loop.run()
        return self.network.digest()


def send_clean_flow(world, vip_ep, isn=1000, req=100, resp=500):
    world.send(0.0, CLIENT, vip_ep, "S", seq=isn)
    world.send(0.01, vip_ep, CLIENT, "S.", seq=5000, ack=isn + 1)
    world.send(0.02, CLIENT, vip_ep, ".", seq=isn + 1, payload_len=req)
    world.send(0.03, vip_ep, CLIENT, ".", seq=5001, ack=isn + 1 + req,
               payload_len=resp)
    world.send(0.04, vip_ep, CLIENT, "F.", seq=5001 + resp, ack=isn + 1 + req)
    world.send(0.05, CLIENT, vip_ep, "F.", seq=isn + 1 + req, ack=5002 + resp)


class TestDigest:
    """The run digest is the network's (``Network.start_digest``)."""

    VIP_EP = "10.0.0.1:80"

    def test_identical_streams_agree(self):
        world, other = DigestWorld(), DigestWorld()
        for w in (world, other):
            send_clean_flow(w, self.VIP_EP)
        assert world.digest() == other.digest()

    def test_any_difference_changes_digest(self):
        world, other = DigestWorld(), DigestWorld()
        send_clean_flow(world, self.VIP_EP)
        send_clean_flow(other, self.VIP_EP, resp=501)
        assert world.digest() != other.digest()

    def test_digest_folds_the_engine_line_of_every_record(self):
        world = DigestWorld()
        world.send(0.0, CLIENT, self.VIP_EP, "S", seq=2**32 - 1)
        world.send(0.5, self.VIP_EP, "172.16.9.9:7", "S.", seq=5, ack=0)
        world.send(1.0, CLIENT, self.VIP_EP, ".", payload_len=7)
        latency = 0.00025
        expected = hashlib.sha256()
        for time, point, direction, src, dst, flags, seq, ack, n, dropped in [
            (0.0, "wire", "tx", CLIENT, self.VIP_EP, "S", 2**32 - 1, 0, 0,
             False),
            (latency, "yoda-0", "rx", CLIENT, self.VIP_EP, "S", 2**32 - 1,
             0, 0, False),
            (0.5, "wire", "tx", self.VIP_EP, "172.16.9.9:7", "S.", 5, 0, 0,
             True),  # no route: dropped on the wire
            (1.0, "wire", "tx", CLIENT, self.VIP_EP, ".", 0, 0, 7, False),
            (1.0 + latency, "yoda-0", "rx", CLIENT, self.VIP_EP, ".", 0, 0,
             7, False),
        ]:
            expected.update(
                f"{time:.9f}|{point}|{direction}|{src}|{dst}|"
                f"{flags}|{seq}|{ack}|{n}|{dropped}"
                .encode())
        assert world.digest() == expected.hexdigest()

    def test_non_wire_records_still_digested(self):
        world, other = DigestWorld(), DigestWorld()
        send_clean_flow(world, self.VIP_EP)
        send_clean_flow(other, self.VIP_EP)
        # the same wire transmissions, one delivery fewer: the last packet
        # is still in flight when ``other`` is read
        other.loop.run(until=0.05)
        assert other.network.digest() != world.digest()


class TestReplicationFactorMonitor:
    """Durability audit: live replicas per record, with a bounded grace
    window that does not restart on membership churn."""

    def _bed_with_record(self, num_stores=2):
        from repro.chaos.invariants import ReplicationFactorMonitor
        bed = make_bed(num_store_servers=num_stores)
        inst = bed.yoda.instances[0]
        inst.durable_records = lambda: [("k", b"v", (1, "w"))]
        for store in bed.yoda.store_servers[:2]:
            store._set("k", b"v", version=(1, "w"))
        monitor = ReplicationFactorMonitor(bed, window=1.0, interval=0.25)
        monitor.start()
        return bed, monitor

    def test_full_replication_is_clean(self):
        bed, monitor = self._bed_with_record()
        bed.loop.run(until=3.0)
        assert monitor.checks > 0
        assert monitor.violation_count == 0

    def test_deficit_fires_once_after_the_window(self):
        bed, monitor = self._bed_with_record()
        bed.loop.run(until=1.0)
        bed.yoda.store_servers[1]._delete("k")
        bed.loop.run(until=1.8)  # deficit younger than the window
        assert monitor.violation_count == 0
        bed.loop.run(until=4.0)
        assert monitor.violation_count == 1  # once per key, not per sample

    def test_restored_replica_clears_the_deficit(self):
        bed, monitor = self._bed_with_record()
        bed.loop.run(until=1.0)
        bed.yoda.store_servers[1]._delete("k")
        bed.loop.run(until=1.8)
        bed.yoda.store_servers[1]._set("k", b"v", version=(1, "w"))
        bed.loop.run(until=4.0)
        assert monitor.violation_count == 0

    def test_stale_copy_does_not_count_as_a_replica(self):
        bed, monitor = self._bed_with_record()
        bed.loop.run(until=1.0)
        # replace one copy with an older snapshot: recovering from it
        # would resurrect a dead version of the flow
        bed.yoda.store_servers[1]._delete("k")
        bed.yoda.store_servers[1]._set("k", b"v0", version=(0, "w"))
        bed.loop.run(until=4.0)
        assert monitor.violation_count == 1

    def test_window_survives_membership_churn(self):
        # a rolling restart must not reset the grace period: epoch bumps
        # every second would otherwise make the deficit clock unfalsifiable
        bed, monitor = self._bed_with_record(num_stores=3)
        bystander = bed.yoda.store_servers[2]
        bed.loop.run(until=1.0)
        bed.yoda.store_servers[1]._delete("k")
        bed.loop.run(until=1.6)
        bed.yoda.kv_cluster.mark_dead(bystander.name)
        bed.loop.run(until=1.9)
        bed.yoda.kv_cluster.mark_live(bystander.name)
        bed.loop.run(until=4.0)
        assert monitor.violation_count == 1


class TestScaleEventsConverge:
    """The autoscaler's convergence audit, judged off event ledgers."""

    @staticmethod
    def _verdict(kinds, spacing=0.1):
        from types import SimpleNamespace

        from repro.autoscale.engine import ScaleEvent
        from repro.chaos.invariants import ScaleEventsConverge
        events = [ScaleEvent(round(i * spacing, 6), kind, 1, "test", 3)
                  for i, kind in enumerate(kinds)]
        return ScaleEventsConverge().finalize([SimpleNamespace(events=events)])

    def test_monotone_events_under_the_bounds_converge(self):
        verdict = self._verdict(["out", "out", "in"], spacing=4.0)
        assert verdict.ok and verdict.checked == 3

    def test_every_violation_counts_past_the_kept_ones(self):
        from repro.chaos.invariants import MAX_VIOLATIONS_KEPT
        verdict = self._verdict(["out", "in"] * 100)
        # alternating events 0.1 s apart: from the 4th event on its window
        # holds > 2 direction changes, from the 7th on > 6 events
        assert verdict.violation_count == (200 - 3) + (200 - 6)
        assert len(verdict.violations) == MAX_VIOLATIONS_KEPT
        assert verdict.checked == 200 and not verdict.ok
