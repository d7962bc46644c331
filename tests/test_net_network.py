"""Network fabric: routing, latency, failure, tracing, ip claiming."""

import pytest

from repro.errors import NetworkError
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.sim.tracing import PacketTrace, TraceRecord


def _pkt(src_ip, dst_ip, payload=b""):
    return Packet(src=Endpoint(src_ip, 1), dst=Endpoint(dst_ip, 2),
                  payload=payload)


@pytest.fixture
def net():
    loop = EventLoop()
    return loop, Network(loop, SeededRng(1), default_latency=FixedLatency(0.001))


def test_delivery_with_latency(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    got = []
    b.set_handler(lambda p: got.append((loop.now(), p)))
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert len(got) == 1
    assert got[0][0] == pytest.approx(0.001)


def test_site_pair_latency(net):
    loop, network = net
    network.set_symmetric_latency("internet", "dc", FixedLatency(0.05))
    a = network.attach(Host("a", ["10.0.0.1"], site="internet"))
    b = network.attach(Host("b", ["10.0.0.2"], site="dc"))
    got = []
    b.set_handler(lambda p: got.append(loop.now()))
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert got == [pytest.approx(0.05)]


def test_no_route_drops(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    a.send(_pkt("10.0.0.1", "10.9.9.9"))
    loop.run()
    assert network.metrics.counter("no_route").value == 1


def test_duplicate_host_name_rejected(net):
    _, network = net
    network.attach(Host("a", ["10.0.0.1"]))
    with pytest.raises(NetworkError):
        network.attach(Host("a", ["10.0.0.2"]))


def test_duplicate_ip_rejected(net):
    _, network = net
    network.attach(Host("a", ["10.0.0.1"]))
    with pytest.raises(NetworkError):
        network.attach(Host("b", ["10.0.0.1"]))


def test_failed_host_drops_rx(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    got = []
    b.set_handler(lambda p: got.append(p))
    b.fail()
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert got == []
    assert b.metrics.counter("rx_dropped_failed").value == 1


def test_failed_host_does_not_send(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    got = []
    b.set_handler(lambda p: got.append(p))
    a.fail()
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert got == []


def test_recovered_host_receives_again(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    got = []
    b.set_handler(lambda p: got.append(p))
    b.fail()
    b.recover()
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert len(got) == 1


def test_claim_ip_moves_ownership(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    c = network.attach(Host("c", ["10.0.0.3"]))
    network.claim_ip(b, "100.0.0.1")
    got_b, got_c = [], []
    b.set_handler(lambda p: got_b.append(p))
    c.set_handler(lambda p: got_c.append(p))
    a.send(_pkt("10.0.0.1", "100.0.0.1"))
    loop.run()
    assert len(got_b) == 1
    network.claim_ip(c, "100.0.0.1")
    assert "100.0.0.1" not in b.ips
    a.send(_pkt("10.0.0.1", "100.0.0.1"))
    loop.run()
    assert len(got_c) == 1 and len(got_b) == 1


def test_loss_rate_drops_packets(net):
    loop, network = net
    network.set_loss_rate(0.5)
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    got = []
    b.set_handler(lambda p: got.append(p))
    for _ in range(200):
        a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert 40 < len(got) < 160  # ~100 expected


def test_invalid_loss_rate(net):
    _, network = net
    with pytest.raises(NetworkError):
        network.set_loss_rate(1.0)


def test_trace_records_tx_and_rx(net):
    loop, network = net
    trace = network.add_trace(PacketTrace())
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    b.set_handler(lambda p: None)
    a.send(_pkt("10.0.0.1", "10.0.0.2", payload=b"xyz"))
    loop.run()
    points = [(r.point, r.direction) for r in trace]
    assert ("wire", "tx") in points
    assert ("b", "rx") in points


def test_trace_marks_drops_at_failed_host(net):
    loop, network = net
    trace = network.add_trace(PacketTrace())
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    b.fail()
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    rx = [r for r in trace if r.direction == "rx"]
    assert rx and rx[0].dropped


class _ScopedTrace(PacketTrace):
    scope = "wire-tx"


def test_wire_tx_tap_sees_the_wire_tx_subsequence_of_an_all_tap(net):
    """Same records (the very objects), same order, nothing else -- with
    deliveries, a transmit-side drop, a delivery-side drop and a duplicate
    in the stream, and whichever tap was attached first."""
    loop, network = net
    early = network.add_trace(_ScopedTrace())
    everything = network.add_trace(PacketTrace())
    late = network.add_trace(_ScopedTrace())
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    dead = network.attach(Host("dead", ["10.0.0.3"]))
    b.set_handler(lambda p: None)
    dead.fail()
    network.set_duplicate_rate(1.0, src="a", dst="b")
    for i in range(5):
        a.send(_pkt("10.0.0.1", "10.0.0.2", payload=b"x" * i))
        b.send(_pkt("10.0.0.2", "10.0.0.1"))
        a.send(_pkt("10.0.0.1", "10.0.0.3"))  # dropped at delivery
        a.send(_pkt("10.0.0.1", "10.9.9.9"))  # dropped at transmit
    loop.run()
    wire_tx = [r for r in everything
               if r.point == "wire" and r.direction == "tx"]
    assert 0 < len(wire_tx) < len(everything)
    assert any(r.dropped for r in wire_tx)
    for scoped in (early, late):
        assert len(scoped) == len(wire_tx)
        assert all(x is y for x, y in zip(scoped, wire_tx))


def test_untapped_and_wire_tx_only_networks_build_no_rx_record(net, monkeypatch):
    loop, network = net
    built = []
    real = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[2])
        real(self, *args, **kwargs)
    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    b.set_handler(lambda p: None)
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert built == []
    network.add_trace(_ScopedTrace())
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert built == ["tx"]


def test_unknown_tap_scope_rejected(net):
    _, network = net

    class Typo(PacketTrace):
        scope = "wire_tx"
    with pytest.raises(NetworkError):
        network.add_trace(Typo())


def test_detach_removes_routes(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    network.detach(b)
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert network.metrics.counter("no_route").value == 1


def test_host_byte_counters(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"]))
    b = network.attach(Host("b", ["10.0.0.2"]))
    b.set_handler(lambda p: None)
    a.send(_pkt("10.0.0.1", "10.0.0.2", payload=b"x" * 60))
    loop.run()
    assert a.metrics.counter("tx_bytes").value == 100  # 40 hdr + 60
    assert b.metrics.counter("rx_bytes").value == 100


# ------------------------------------------------------------ path faults --
@pytest.fixture
def two_sites(net):
    loop, network = net
    a = network.attach(Host("a", ["10.0.0.1"], site="internet"))
    b = network.attach(Host("b", ["10.0.0.2"], site="dc"))
    got_a, got_b = [], []
    a.set_handler(lambda p: got_a.append(p))
    b.set_handler(lambda p: got_b.append(p))
    return loop, network, a, b, got_a, got_b


def test_per_path_loss_is_asymmetric(two_sites):
    loop, network, a, b, got_a, got_b = two_sites
    network.set_loss_rate(0.5, src="internet", dst="dc")
    for _ in range(200):
        a.send(_pkt("10.0.0.1", "10.0.0.2"))
        b.send(_pkt("10.0.0.2", "10.0.0.1"))
    loop.run()
    assert 40 < len(got_b) < 160  # lossy direction, ~100 expected
    assert len(got_a) == 200  # reverse path untouched


def test_partition_blackholes_both_ways(two_sites):
    loop, network, a, b, got_a, got_b = two_sites
    network.partition("a", "b")
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    b.send(_pkt("10.0.0.2", "10.0.0.1"))
    loop.run()
    assert got_a == [] and got_b == []
    assert network.metrics.counter("path_lost_packets").value == 2


def test_asymmetric_partition_keeps_reverse_path(two_sites):
    loop, network, a, b, got_a, got_b = two_sites
    network.partition("a", "b", symmetric=False)
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    b.send(_pkt("10.0.0.2", "10.0.0.1"))
    loop.run()
    assert got_b == [] and len(got_a) == 1


def test_heal_restores_partitioned_path(two_sites):
    loop, network, a, b, _, got_b = two_sites
    network.partition("a", "b")
    network.heal("a", "b")
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert len(got_b) == 1


def test_host_rule_overrides_site_rule(two_sites):
    loop, network, a, b, _, _ = two_sites
    network.set_extra_latency(0.030, src="internet", dst="dc")
    network.set_extra_latency(0.010, src="a", dst="b")  # most specific wins
    arrived = []
    b.set_handler(lambda p: arrived.append(loop.now()))
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert arrived == [pytest.approx(0.011)]  # base 1 ms + host-pair 10 ms


def test_duplicate_rate_delivers_twice(two_sites):
    loop, network, a, b, _, got_b = two_sites
    network.set_duplicate_rate(1.0, src="internet", dst="dc")
    a.send(_pkt("10.0.0.1", "10.0.0.2"))
    loop.run()
    assert len(got_b) == 2
    assert network.metrics.counter("duplicated_packets").value == 1


def test_extra_latency_delays_one_direction(two_sites):
    loop, network, a, b, got_a, _ = two_sites
    network.set_extra_latency(0.030, src="dc", dst="internet")
    arrived = []
    a.set_handler(lambda p: arrived.append(loop.now()))
    b.send(_pkt("10.0.0.2", "10.0.0.1"))
    loop.run()
    assert arrived == [pytest.approx(0.031)]  # base 1 ms + 30 ms spike


def test_per_path_total_loss_allowed_global_still_rejected(net):
    _, network = net
    network.set_loss_rate(1.0, src="x", dst="y")  # blackhole form is legal
    with pytest.raises(NetworkError):
        network.set_loss_rate(1.0)
