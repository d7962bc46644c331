"""Cross-site flow-store replication: pacing, promotion, supersession."""

import pytest

from repro.kvstore.client import MemcachedCluster, ReplicatingKvClient
from repro.kvstore.memcached import MemcachedServer
from repro.kvstore.sitesync import SiteReplicator
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

WAN = 0.020  # one-way relay -> standby-site latency


@pytest.fixture
def sites():
    """A relay in the primary site and a two-server standby cluster."""
    loop = EventLoop()
    net = Network(loop, SeededRng(7), default_latency=FixedLatency(WAN))
    servers = []
    for i in range(2):
        host = net.attach(Host(f"mc-s{i}", [f"10.6.0.{i + 1}"], site="dc2"))
        servers.append(MemcachedServer(host, loop))
    cluster = MemcachedCluster(servers)
    relay = net.attach(Host("sitesync-relay", ["10.7.0.1"], site="dc"))
    kv = ReplicatingKvClient(relay, loop, cluster, replicas=2,
                             op_timeout=0.25, self_healing=False)
    relay.set_handler(kv.handle_response)
    rep = SiteReplicator(loop, kv, interval=0.05)
    rep.start()
    return loop, servers, rep


def holders(servers, key):
    return {s.name for s in servers if s.peek(key) is not None}


class TestShipping:
    def test_acked_write_reaches_standby_at_primary_version(self, sites):
        loop, servers, rep = sites
        rep.note("yoda:c:1.1.1.1:5:vip:80", b"state-1", (3, "yoda-0"))
        loop.run(until=1.0)
        assert rep.records_shipped == 1
        assert len(rep._queue) == 0
        for s in servers:
            assert s.peek("yoda:c:1.1.1.1:5:vip:80") == b"state-1"
            assert s.peek_version("yoda:c:1.1.1.1:5:vip:80") == (3, "yoda-0")

    def test_coalesces_rewrites_of_the_same_key(self, sites):
        loop, servers, rep = sites
        for i in range(5):
            rep.note("k", f"v{i}".encode(), (i + 1, "yoda-0"))
        loop.run(until=1.0)
        # five primary writes, one WAN ship -- the newest
        assert rep.records_shipped == 1
        assert servers[0].peek("k") == b"v4"

    def test_lag_reports_oldest_unshipped_age(self, sites):
        loop, servers, rep = sites
        rep.stop()  # no shipping: lag accrues
        rep.note("k", b"v", (1, "yoda-0"))
        loop.run(until=0.5)
        assert rep.lag() == pytest.approx(0.5)
        rep.note("k", b"v2", (2, "yoda-0"))  # coalesce keeps FIRST enqueue
        assert rep.lag() == pytest.approx(0.5)
        rep.start()
        loop.run(until=1.5)
        assert rep.lag() == 0.0
        assert rep.max_lag >= 0.5

    def test_pacing_bounds_ships_per_wakeup(self, sites):
        loop, servers, rep = sites
        for i in range(30):
            rep.note(f"k{i}", b"v", (1, "yoda-0"))
        # burst 80 covers all 30, so cap it tighter for the test
        rep.bucket.capacity = 10
        rep.bucket.tokens = 10
        loop.run(until=loop.now() + 0.051)
        assert rep.records_shipped == 10
        loop.run(until=loop.now() + 1.0)
        assert rep.records_shipped == 30


class TestPromotion:
    def test_promote_counts_and_abandons_backlog(self, sites):
        loop, servers, rep = sites
        rep.stop()
        for i in range(7):
            rep.note(f"k{i}", b"v", (1, "yoda-0"))
        lost = rep.promote()
        assert lost == 7
        assert len(rep._queue) == 0
        # idempotent: a second promotion reports the same loss
        assert rep.promote() == 7

    def test_notes_after_promotion_are_ignored(self, sites):
        loop, servers, rep = sites
        rep.promote()
        rep.note("k", b"v", (1, "yoda-0"))
        rep.note_delete("k2", (1, "yoda-0"))
        loop.run(until=1.0)
        assert len(rep._queue) == 0
        assert rep.records_shipped == 0
        assert holders(servers, "k") == set()

    def test_dead_relay_ships_nothing(self, sites):
        loop, servers, rep = sites
        rep.note("k", b"v", (1, "yoda-0"))
        rep.kv.host.fail()
        loop.run(until=1.0)
        assert holders(servers, "k") == set()
        assert len(rep._queue) == 1  # the backlog IS the data loss at kill


class TestSupersession:
    """Recycled flow keys and post-failover writers must out-version the
    stale cross-site copies through ordinary newest-wins -- PR 2's
    machinery, no special cases."""

    def test_standby_writer_supersedes_replicated_record(self, sites):
        loop, servers, rep = sites
        rep.note("k", b"from-primary", (4, "yoda-0"))
        loop.run(until=1.0)
        # after promotion a standby instance re-stamps the same key higher
        servers[0].host  # (standby cluster is now authoritative)
        done = []
        rep.kv.set("k", b"from-standby", done.append, version=(5, "yoda-s-0"))
        loop.run(until=2.0)
        assert done and done[0].ok
        assert servers[0].peek("k") == b"from-standby"

    def test_late_stale_ship_loses_newest_wins(self, sites):
        loop, servers, rep = sites
        done = []
        rep.kv.set("k", b"new", done.append, version=(9, "yoda-s-0"))
        loop.run(until=1.0)
        # a laggy cross-site ship of the older incarnation arrives after
        rep.note("k", b"old", (2, "yoda-0"))
        loop.run(until=2.0)
        assert servers[0].peek("k") == b"new"
        assert servers[0].peek_version("k") == (9, "yoda-s-0")

    def test_delete_ships_as_compare_and_delete(self, sites):
        loop, servers, rep = sites
        rep.note("k", b"v", (3, "yoda-0"))
        loop.run(until=1.0)
        assert holders(servers, "k") != set()
        rep.note_delete("k", (3, "yoda-0"))
        loop.run(until=2.0)
        assert rep.deletes_shipped == 1
        assert holders(servers, "k") == set()

    def test_delete_refused_when_standby_holds_newer(self, sites):
        loop, servers, rep = sites
        done = []
        rep.kv.set("k", b"recycled", done.append, version=(8, "yoda-s-1"))
        loop.run(until=1.0)
        # the primary's teardown of the OLD incarnation must not delete
        # the standby's newer record for the recycled key
        rep.note_delete("k", (2, "yoda-0"))
        loop.run(until=2.0)
        assert servers[0].peek("k") == b"recycled"
