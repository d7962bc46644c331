"""Anti-entropy sweeper: token bucket pacing and re-replication."""

import pytest

from repro.kvstore.client import MemcachedCluster, ReplicatingKvClient
from repro.kvstore.memcached import MemcachedServer
from repro.kvstore.repair import FlowStateRepairer, TokenBucket
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng


class TestTokenBucket:
    def test_burst_bounds_initial_takes(self):
        loop = EventLoop()
        bucket = TokenBucket(loop, rate=10.0, burst=3)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True,
                                                        False]

    def test_refills_with_simulated_time(self):
        loop = EventLoop()
        bucket = TokenBucket(loop, rate=10.0, burst=5)
        while bucket.try_take():
            pass
        loop.run(until=0.25)  # 2.5 tokens accrue
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        loop = EventLoop()
        bucket = TokenBucket(loop, rate=100.0, burst=4)
        loop.run(until=10.0)  # long idle: tokens must not pile past burst
        assert [bucket.try_take() for _ in range(5)].count(True) == 4

    def test_rejects_nonpositive_parameters(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            TokenBucket(loop, rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(loop, rate=1.0, burst=0)


@pytest.fixture
def repair_world():
    loop = EventLoop()
    net = Network(loop, SeededRng(7), default_latency=FixedLatency(0.0002))
    servers = []
    for i in range(4):
        host = net.attach(Host(f"mc{i}", [f"10.2.0.{i + 1}"]))
        servers.append(MemcachedServer(host, loop))
    cluster = MemcachedCluster(servers)
    client_host = net.attach(Host("yoda-0", ["10.1.0.1"]))
    kv = ReplicatingKvClient(client_host, loop, cluster, replicas=2,
                             op_timeout=0.05)
    client_host.set_handler(kv.handle_response)
    return loop, servers, cluster, kv


def write(loop, kv, key, value, version):
    done = []
    kv.set(key, value, done.append, version=version)
    loop.run(until=loop.now() + 0.5)
    assert done and done[0].ok


def holders(servers, key):
    return {s.name for s in servers if s.peek(key) is not None}


class TestFlowStateRepairer:
    def test_idle_when_epoch_unchanged(self, repair_world):
        loop, servers, cluster, kv = repair_world
        records = [("k", b"v", (1, "yoda-0"))]
        rep = FlowStateRepairer(loop, kv, lambda: records, interval=0.1)
        write(loop, kv, "k", b"v", (1, "yoda-0"))
        rep.start()
        loop.run(until=loop.now() + 1.0)
        assert rep.repairs_issued == 0
        assert len(rep._queue) == 0

    def test_rereplicates_after_replica_set_moves(self, repair_world):
        loop, servers, cluster, kv = repair_world
        write(loop, kv, "k", b"v", (1, "yoda-0"))
        before = holders(servers, "k")
        assert len(before) == 2
        rep = FlowStateRepairer(loop, kv, lambda: [("k", b"v", (1, "yoda-0"))],
                                interval=0.1)
        rep.start()
        loop.run(until=loop.now() + 0.3)  # learn current placement (epoch 0)
        victim = next(s for s in servers if s.name in before)
        victim.fail()
        cluster.mark_dead(victim.name)  # epoch bump; ring moves the key
        loop.run(until=loop.now() + 1.0)
        assert rep.repairs_issued >= 1
        live_holders = {s.name for s in servers
                        if not s.host.failed and s.peek("k") == b"v"}
        assert len(live_holders) == 2
        assert all(s.peek_version("k") == (1, "yoda-0") for s in servers
                   if s.name in live_holders)

    def test_token_bucket_paces_a_large_backlog(self, repair_world):
        loop, servers, cluster, kv = repair_world
        records = [(f"k{i}", b"v", (1, "yoda-0")) for i in range(30)]
        for key, value, version in records:
            write(loop, kv, key, value, version)
        rep = FlowStateRepairer(loop, kv, lambda: records,
                                interval=0.1, rate=20.0, burst=5)
        rep.start()
        victim = next(s for s in servers if not s.host.failed)
        victim.fail()
        cluster.mark_dead(victim.name)
        loop.run(until=loop.now() + 0.15)  # first sweep: burst-limited
        assert 0 < rep.repairs_issued <= 6
        assert len(rep._queue) > 0
        loop.run(until=loop.now() + 3.0)  # rate (20/s) drains the rest
        assert len(rep._queue) == 0

    def test_crashed_instance_abandons_its_queue(self, repair_world):
        loop, servers, cluster, kv = repair_world
        records = [(f"k{i}", b"v", (1, "yoda-0")) for i in range(10)]
        for key, value, version in records:
            write(loop, kv, key, value, version)
        rep = FlowStateRepairer(loop, kv, lambda: records,
                                interval=0.1, rate=5.0, burst=1)
        rep.start()
        victim = next(s for s in servers if not s.host.failed)
        victim.fail()
        cluster.mark_dead(victim.name)
        loop.run(until=loop.now() + 0.15)
        assert len(rep._queue) > 0
        kv.host.fail()  # the instance itself dies: its flows re-home
        loop.run(until=loop.now() + 0.5)
        assert len(rep._queue) == 0

    def test_unowned_keys_are_dropped_from_the_queue(self, repair_world):
        loop, servers, cluster, kv = repair_world
        records = [("gone", b"v", (1, "yoda-0")), ("kept", b"v", (1, "yoda-0"))]
        for key, value, version in records:
            write(loop, kv, key, value, version)
        owned = list(records)
        rep = FlowStateRepairer(loop, kv, lambda: list(owned),
                                interval=0.1, rate=1e-3, burst=1e-3)
        rep.start()
        victim = next(s for s in servers if not s.host.failed)
        victim.fail()
        cluster.mark_dead(victim.name)
        loop.run(until=loop.now() + 0.15)
        assert len(rep._queue) == 2  # bucket too slow to drain anything
        owned.pop(0)  # the "gone" flow closes
        victim2 = next(s for s in servers if not s.host.failed)
        victim2.fail()
        cluster.mark_dead(victim2.name)  # next epoch triggers a re-scan
        loop.run(until=loop.now() + 0.15)
        assert len(rep._queue) == 1
