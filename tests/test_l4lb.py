"""L4 LB: SNAT ranges, mux hashing/affinity, mapping propagation."""

import pytest

from repro.errors import NetworkError
from repro.l4lb import service as l4lb_service, snat
from repro.l4lb.service import L4LoadBalancer
from repro.l4lb.snat import SnatAllocator
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.net.packet import ACK, SYN, Packet
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng, stable_hash32

VIP = "100.0.0.1"


class TestSnatAllocator:
    def test_ranges_disjoint(self):
        alloc = SnatAllocator()
        r1 = alloc.ensure_range(VIP, "10.1.0.1")
        r2 = alloc.ensure_range(VIP, "10.1.0.2")
        assert r1[1] <= r2[0] or r2[1] <= r1[0]

    def test_range_sticky(self):
        alloc = SnatAllocator()
        assert alloc.ensure_range(VIP, "a") == alloc.ensure_range(VIP, "a")

    def test_owner_lookup(self):
        alloc = SnatAllocator()
        lo, hi = alloc.ensure_range(VIP, "inst")
        assert alloc.owner_of(VIP, lo) == "inst"
        assert alloc.owner_of(VIP, hi - 1) == "inst"
        assert alloc.owner_of(VIP, hi) is None

    def test_per_vip_namespaces(self):
        alloc = SnatAllocator()
        r1 = alloc.ensure_range("100.0.0.1", "a")
        r2 = alloc.ensure_range("100.0.0.2", "b")
        assert r1 == r2  # same block, different VIP namespace
        assert alloc.owner_of("100.0.0.1", r1[0]) == "a"
        assert alloc.owner_of("100.0.0.2", r1[0]) == "b"

    def test_release_and_reuse(self):
        alloc = SnatAllocator()
        r1 = alloc.ensure_range(VIP, "a")
        alloc.release(VIP, "a")
        assert alloc.owner_of(VIP, r1[0]) is None
        assert alloc.ensure_range(VIP, "b") == r1

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(snat, "SNAT_BASE_PORT", 64000)
        monkeypatch.setattr(snat, "SNAT_RANGE_SIZE", 1000)
        alloc = SnatAllocator()
        alloc.ensure_range(VIP, "a")
        with pytest.raises(NetworkError):
            alloc.ensure_range(VIP, "b")

    def test_allocation_version_gates_propagation_race(self):
        # a range born in mapping push 7 is invisible to muxes whose
        # entry predates 7 -- allocated_after is how the mux tells "the
        # owner's push is still propagating" from "the owner is gone"
        alloc = SnatAllocator()
        alloc.ensure_range(VIP, "a", version=7)
        assert alloc.allocated_after(VIP, "a", 6)
        assert not alloc.allocated_after(VIP, "a", 7)
        # re-ensuring an existing range never moves its birth version
        alloc.ensure_range(VIP, "a", version=9)
        assert not alloc.allocated_after(VIP, "a", 8)


@pytest.fixture
def world(monkeypatch):
    monkeypatch.setattr(l4lb_service, "MAPPING_PROPAGATION", 0.1)
    loop = EventLoop()
    net = Network(loop, SeededRng(11), default_latency=FixedLatency(0.0002))
    lb = L4LoadBalancer(loop, net, SeededRng(11), num_muxes=3)
    instances = []
    for i in range(3):
        host = net.attach(Host(f"lb-{i}", [f"10.1.0.{i + 1}"]))
        host.got = []
        host.set_handler(lambda p, h=host: h.got.append(p))
        instances.append(host)
    client = net.attach(Host("cli", ["172.16.0.1"]))
    lb.register_vip(VIP)
    return loop, net, lb, instances, client


def syn(client_port, dst_port=80):
    return Packet(src=Endpoint("172.16.0.1", client_port),
                  dst=Endpoint(VIP, dst_port), flags=SYN, seq=1)


class TestL4LoadBalancer:
    def test_vip_traffic_reaches_some_instance(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        client.send(syn(40000))
        loop.run(until=1.0)
        assert sum(len(i.got) for i in instances) == 1

    def test_flow_affinity_same_instance(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        for _ in range(5):
            client.send(Packet(src=Endpoint("172.16.0.1", 40000),
                               dst=Endpoint(VIP, 80), flags=ACK, seq=2))
        loop.run(until=1.0)
        receivers = [i for i in instances if i.got]
        assert len(receivers) == 1
        assert len(receivers[0].got) == 5

    def test_flows_spread_across_instances(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        for port in range(40000, 40120):
            client.send(syn(port))
        loop.run(until=1.0)
        receivers = [i for i in instances if len(i.got) > 10]
        assert len(receivers) == 3  # all instances get a meaningful share

    def test_snat_port_routes_to_owner(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        owner = instances[1]
        lo, hi = lb.snat_range(VIP, owner.ip)
        server = net.attach(Host("srv", ["10.3.0.1"]))
        server.send(Packet(src=Endpoint("10.3.0.1", 80),
                           dst=Endpoint(VIP, lo + 5), flags=SYN | ACK, seq=9))
        loop.run(until=1.0)
        assert len(owner.got) == 1
        assert not instances[0].got and not instances[2].got

    def test_snat_falls_back_when_owner_removed(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        owner = instances[1]
        lo, _ = lb.snat_range(VIP, owner.ip)
        lb.update_mapping(VIP, [instances[0].ip, instances[2].ip],
                          immediate=True)
        server = net.attach(Host("srv", ["10.3.0.1"]))
        server.send(Packet(src=Endpoint("10.3.0.1", 80),
                           dst=Endpoint(VIP, lo + 5), flags=ACK, seq=9))
        loop.run(until=1.0)
        assert not owner.got
        assert len(instances[0].got) + len(instances[2].got) == 1

    def test_mapping_update_propagates_gradually(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [instances[0].ip])
        loop.run(until=0.2)
        assert [m.vips[VIP].version for m in lb.muxes] == [1, 1, 1]

    def test_flush_removed_redirects_established_flow(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        client.send(syn(40000))
        loop.run(until=0.1)
        pinned = next(i for i in instances if i.got)
        others = [i for i in instances if i is not pinned]
        # YODA-style removal: flush entries -> flow reroutes
        lb.update_mapping(VIP, [i.ip for i in others], immediate=True)
        client.send(Packet(src=Endpoint("172.16.0.1", 40000),
                           dst=Endpoint(VIP, 80), flags=ACK, seq=2))
        loop.run(until=0.2)
        assert sum(len(i.got) for i in others) == 1

    def test_no_flush_keeps_established_flow_pinned(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        client.send(syn(40000))
        loop.run(until=0.1)
        pinned = next(i for i in instances if i.got)
        before = len(pinned.got)
        others = [i for i in instances if i is not pinned]
        # HAProxy-style removal: entries stay -> packets keep dying at pinned
        lb.update_mapping(VIP, [i.ip for i in others], flush_removed=False,
                          immediate=True)
        client.send(Packet(src=Endpoint("172.16.0.1", 40000),
                           dst=Endpoint(VIP, 80), flags=ACK, seq=2))
        loop.run(until=0.2)
        assert len(pinned.got) == before + 1

    def test_unregistered_vip_rejected(self, world):
        loop, net, lb, instances, client = world
        with pytest.raises(NetworkError):
            lb.update_mapping("100.0.0.99", [instances[0].ip])

    def test_unregister_vip_drops_traffic(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        lb.unregister_vip(VIP)
        client.send(syn(40001))
        loop.run(until=0.5)
        assert sum(len(i.got) for i in instances) == 0

    def test_flow_table_expiry(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        client.send(syn(40000))
        loop.run(until=0.1)
        total_entries = sum(len(m.flow_table) for m in lb.muxes)
        assert total_entries >= 1
        loop.run(until=120.0)  # past FLOW_IDLE_TIMEOUT + gc period
        assert sum(len(m.flow_table) for m in lb.muxes) == 0

    def test_detached_instance_counts_as_drop_not_forward(self, world):
        """Scale-in detaches an instance's host while muxes still map it:
        the packet dies at the mux and must be accounted as a drop, with a
        flight record, not as forwarded."""
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [instances[0].ip], immediate=True)
        loop.run(until=0.01)
        net.detach(instances[0])
        OBS.enable()
        OBS.attach_clock(loop.now)
        try:
            client.send(syn(40000))
            loop.run(until=0.1)
            drops = [detail for mux in lb.muxes
                     for _, kind, detail
                     in OBS.recorders.recorder(mux.name).events()
                     if kind == "drop"]
        finally:
            OBS.disable()
        assert not instances[0].got
        assert sum(m.dropped for m in lb.muxes) == 1
        assert sum(m.forwarded for m in lb.muxes) == 0
        assert len(drops) == 1 and instances[0].ip in drops[0]


class TestEcmpMemo:
    """The router memoises its ECMP pick per pinned flow; the memo lives
    and dies with the mux flow-table pins."""

    @staticmethod
    def _pinned(lb):
        return {k for m in lb.muxes for k in m.flow_table}

    def _drive(self, world, n):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        rng = SeededRng(5)
        tuples = {(f"172.16.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                   rng.randint(1024, 65535)) for _ in range(n)}
        for ip, port in sorted(tuples):
            client.send(Packet(src=Endpoint(ip, port), dst=Endpoint(VIP, 80),
                               flags=SYN, seq=1))
        loop.run(until=0.5)
        return lb

    def test_memoised_pick_is_the_ecmp_hash(self, world):
        lb = self._drive(world, 10_000)
        assert len(lb._ecmp_memo) > 9_000
        for key, idx in lb._ecmp_memo.items():
            assert idx == stable_hash32(key, salt="ecmp") % len(lb.muxes)
            assert key in lb.muxes[idx].flow_table
        assert set(lb._ecmp_memo) == self._pinned(lb)

    def test_memo_and_pin_share_one_key_string(self, world):
        lb = self._drive(world, 300)
        pinned = {id(k) for m in lb.muxes for k in m.flow_table}
        assert len(pinned) > 250
        assert {id(k) for k in lb._ecmp_memo} == pinned

    def test_memo_follows_the_pins(self, world):
        loop, net, lb, instances, client = world
        self._drive(world, 300)
        assert set(lb._ecmp_memo) == self._pinned(lb)
        # one flow released by its owner
        key = next(iter(lb._ecmp_memo))
        src, _, dst = key.partition(">")
        assert lb.release_flow(Endpoint.parse(src), Endpoint.parse(dst))
        assert key not in lb._ecmp_memo
        # one instance's pins flushed
        assert lb.flush_instance(instances[0].ip) > 0
        assert lb._ecmp_memo and set(lb._ecmp_memo) == self._pinned(lb)
        # idle expiry
        lb.muxes[0].expire_flows(loop.now() + 2 * lb.muxes[0].FLOW_IDLE_TIMEOUT)
        assert not lb.muxes[0].flow_table
        assert lb._ecmp_memo and set(lb._ecmp_memo) == self._pinned(lb)
        # the VIP goes away: nothing is pinned, nothing is remembered
        lb.unregister_vip(VIP)
        assert not self._pinned(lb) and not lb._ecmp_memo

    def test_memo_hit_reaches_the_same_instance(self, world):
        loop, net, lb, instances, client = world
        lb.update_mapping(VIP, [i.ip for i in instances], immediate=True)
        client.send(syn(40000))
        loop.run(until=0.1)
        assert len(lb._ecmp_memo) == 1
        for _ in range(3):
            client.send(Packet(src=Endpoint("172.16.0.1", 40000),
                               dst=Endpoint(VIP, 80), flags=ACK, seq=2))
        loop.run(until=0.2)
        assert sorted(len(i.got) for i in instances) == [0, 0, 4]
