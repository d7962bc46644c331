"""Memcached substrate: hashing, server, replicating client."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import KvStoreError
from repro.kvstore import client as client_module
from repro.kvstore.client import MemcachedCluster, ReplicatingKvClient
from repro.kvstore.hashring import HashRing
from repro.kvstore.memcached import MemcachedServer
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.events import EventLoop
from repro.sim.process import Timer
from repro.sim.random import SeededRng


class TestHashRing:
    def test_lookup_consistent(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.lookup("key1") == ring.lookup("key1")

    def test_all_nodes_reachable(self):
        ring = HashRing(["a", "b", "c"])
        owners = {ring.lookup(f"key-{i}") for i in range(500)}
        assert owners == {"a", "b", "c"}

    def test_lookup_n_distinct(self):
        ring = HashRing(["a", "b", "c", "d"])
        replicas = ring.lookup_n("some-key", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_lookup_n_caps_at_ring_size(self):
        ring = HashRing(["a", "b"])
        assert len(ring.lookup_n("k", 5)) == 2

    def test_remove_only_remaps_removed_nodes_keys(self):
        ring = HashRing(["a", "b", "c", "d"])
        before = {f"k{i}": ring.lookup(f"k{i}") for i in range(300)}
        ring.remove("c")
        for key, owner in before.items():
            if owner != "c":
                assert ring.lookup(key) == owner

    def test_add_is_idempotent(self):
        ring = HashRing(["a"])
        ring.add("a")
        assert len(ring) == 1

    def test_empty_ring_raises(self):
        with pytest.raises(KeyError):
            HashRing([]).lookup("k")

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_any_key_finds_an_owner(self, key):
        ring = HashRing(["a", "b", "c"])
        assert ring.lookup(key) in ("a", "b", "c")


def make_cluster_world(client_cls=ReplicatingKvClient):
    loop = EventLoop()
    net = Network(loop, SeededRng(5), default_latency=FixedLatency(0.0002))
    servers = []
    for i in range(4):
        host = net.attach(Host(f"mc{i}", [f"10.2.0.{i + 1}"]))
        servers.append(MemcachedServer(host, loop))
    cluster = MemcachedCluster(servers)
    client_host = net.attach(Host("cli", ["10.1.0.1"]))
    kv = client_cls(client_host, loop, cluster, replicas=2, op_timeout=0.05)
    client_host.set_handler(kv.handle_response)
    return loop, servers, cluster, kv


@pytest.fixture
def cluster_world():
    return make_cluster_world()


def run_op(loop, fn, *args):
    results = []
    fn(*args, results.append)
    loop.run(until=loop.now() + 1.0)
    assert results
    return results[0]


class TestMemcachedServer:
    def test_recover_comes_back_empty(self):
        loop = EventLoop()
        net = Network(loop, SeededRng(1))
        host = net.attach(Host("mc", ["10.2.0.1"]))
        server = MemcachedServer(host, loop)
        server._set("a", b"1")
        server.fail()
        server.recover()
        assert server.peek("a") is None


class TestReplication:
    def test_set_writes_k_replicas(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        result = run_op(loop, kv.set, "key", b"value")
        assert result.ok
        holders = [s for s in servers if s.peek("key") == b"value"]
        assert len(holders) == 2

    def test_replicas_match_ring_choice(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, kv.set, "key", b"v")
        expected = set(cluster.replicas_for("key", 2))
        actual = {s.name for s in servers if s.peek("key")}
        assert actual == expected

    def test_get_roundtrip(self, cluster_world):
        loop, _, _, kv = cluster_world
        run_op(loop, kv.set, "k", b"data")
        result = run_op(loop, kv.get, "k")
        assert result.ok and result.value == b"data"

    def test_get_missing_key(self, cluster_world):
        loop, _, _, kv = cluster_world
        result = run_op(loop, kv.get, "ghost")
        assert not result.ok and result.value is None

    def test_delete_removes_all_replicas(self, cluster_world):
        loop, servers, _, kv = cluster_world
        run_op(loop, kv.set, "k", b"v")
        run_op(loop, kv.delete, "k")
        assert all(s.peek("k") is None for s in servers)

    def test_survives_one_replica_failure(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, kv.set, "k", b"v")
        holders = [s for s in servers if s.peek("k")]
        holders[0].fail()
        result = run_op(loop, kv.get, "k")
        assert result.ok and result.value == b"v"

    def test_lost_when_all_replicas_fail(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, kv.set, "k", b"v")
        for server in servers:
            if server.peek("k"):
                server.fail()
        result = run_op(loop, kv.get, "k")
        assert not result.ok

    def test_ring_update_reroutes_new_writes(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        dead = servers[0]
        dead.fail()
        cluster.mark_dead(dead.name)
        result = run_op(loop, kv.set, "any-key", b"v")
        assert result.ok
        # no timeout was needed: all targeted replicas were live
        assert result.replicas_answered == result.replicas_targeted

    def test_set_latency_reflects_max_of_replicas(self, cluster_world):
        loop, _, _, kv = cluster_world
        result = run_op(loop, kv.set, "k", b"v")
        # 2 network RTTs in parallel: latency ~ one RTT, never near timeout
        assert result.latency < 0.01

    def test_invalid_replicas(self, cluster_world):
        loop, servers, cluster, _ = cluster_world
        host = Host("x", ["10.9.0.1"])
        with pytest.raises(KvStoreError):
            ReplicatingKvClient(host, loop, cluster, replicas=0)

    def test_metrics_counters(self, cluster_world):
        loop, _, _, kv = cluster_world
        run_op(loop, kv.set, "k", b"v")
        run_op(loop, kv.get, "k")
        assert kv.metrics.counter("set_issued").value == 1
        assert kv.metrics.counter("get_ok").value == 1

    def test_a_counter_is_listed_only_once_it_has_counted(self, cluster_world):
        """The per-op counters are resolved once per (client, op), but on
        first use: a registry never lists a zero nobody counted."""
        loop, _, _, kv = cluster_world
        assert not kv.metrics.counters and not kv.metrics.histograms
        run_op(loop, kv.set, "k", b"v")
        assert sorted(kv.metrics.counters) == ["set_issued", "set_ok"]
        assert sorted(kv.metrics.histograms) == ["set_latency"]
        assert not run_op(loop, kv.get, "missing").ok
        assert sorted(kv.metrics.counters) == [
            "get_fail", "get_issued", "set_issued", "set_ok"]
        run_op(loop, kv.set, "k", b"v2")
        assert kv.metrics.counter("set_ok").value == 2
        assert len(kv.metrics.histogram("set_latency")) == 2


class TestRetryHardening:
    def test_timeout_with_partial_answers_still_ok(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, kv.set, "k", b"v")
        holders = [s for s in servers if s.peek("k")]
        holders[0].fail()
        # set to the same replica pair: one answers, one is silent
        result = run_op(loop, kv.set, "k", b"v2")
        assert result.ok and result.replicas_answered == 1
        assert kv.metrics.counter("timeouts").value == 1

    def test_all_silent_replicas_trigger_retry(self, cluster_world,
                                               monkeypatch):
        loop, servers, cluster, kv = cluster_world
        # one strike: timeout -> mark dead
        monkeypatch.setattr(client_module, "DEAD_AFTER_TIMEOUTS", 1)
        targets = cluster.replicas_for("k", 2)
        for server in servers:
            if server.name in targets:
                server.fail()
        # attempt 1 times out with zero answers; both silent targets are
        # marked dead, so the retry re-picks live replicas and succeeds
        result = run_op(loop, kv.set, "k", b"v")
        assert kv.metrics.counter("retries").value >= 1
        assert result.ok

    def test_backoff_grows_per_attempt(self, cluster_world):
        _, _, _, kv = cluster_world
        assert kv._timeout_for(2) == 2 * kv._timeout_for(1)

    def test_jitter_stretches_timeout(self, cluster_world):
        loop, servers, cluster, _ = cluster_world
        host = Host("cli2", ["10.1.0.2"])
        kv = ReplicatingKvClient(host, loop, cluster, op_timeout=0.05,
                                 rng=SeededRng(9))
        base = kv.op_timeout
        sampled = {kv._timeout_for(1) for _ in range(20)}
        assert all(base <= t <= base * 1.25 for t in sampled)
        assert len(sampled) > 1

    def test_consecutive_timeouts_mark_server_dead(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        dead = servers[0]
        dead.fail()
        marked = 0
        for i in range(40):
            key = f"key-{i}"
            if dead.name not in cluster.replicas_for(key, 2):
                continue
            run_op(loop, kv.set, key, b"v")
            if dead.name not in cluster.ring:
                marked = 1
                break
        assert marked == 1
        assert kv.metrics.counter("servers_marked_dead").value == 1

    def test_response_resets_timeout_streak(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        kv._consecutive_timeouts[servers[0].name] = 2
        key = next(f"k{i}" for i in range(100)
                   if servers[0].name in cluster.replicas_for(f"k{i}", 2))
        run_op(loop, kv.set, key, b"v")
        assert kv._consecutive_timeouts[servers[0].name] == 0


class _TimerArmedClient(ReplicatingKvClient):
    """The op timeout as it was before it became a bare loop event: one
    restartable ``Timer`` per op around a closure, re-armed per attempt,
    cancelled on completion.  The reference for
    ``test_op_timeout_event_fires_where_the_timer_did``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._timers = {}

    def _send_attempt(self, req_id, pending):
        timer = self._timers.get(req_id)
        if timer is None:
            timer = self._timers[req_id] = Timer(
                self.loop, lambda: self._on_timeout(req_id))
        timer.start(self._timeout_for(pending.attempts))
        for name in pending.targets:
            self.host.send(Packet(
                src=self._src, dst=self.cluster.endpoint(name),
                payload=pending.value or b"",
                meta={"kv": {"op": pending.op, "key": pending.key,
                             "value": pending.value,
                             "version": pending.version, "req_id": req_id,
                             "attempt": pending.attempts}}))

    def _complete(self, req_id, ok):
        self._timers.pop(req_id).cancel()
        super()._complete(req_id, ok)


def _timeout_retry_repick_log(client_cls, monkeypatch):
    """Both replicas of the key and one of the other two servers are
    silent: attempt 1 times out unanswered at T1, its targets are marked
    dead, the retry re-picks the two servers left and times out at T2 with
    one answer.  Foreign events sit at exactly T1 and T2, scheduled before
    and after each timeout was armed."""
    loop, servers, cluster, kv = make_cluster_world(client_cls)
    monkeypatch.setattr(client_module, "DEAD_AFTER_TIMEOUTS", 1)
    first = cluster.replicas_for("k", 2)
    rest = [s for s in servers if s.name not in first]
    for server in servers:
        if server.name in first or server is rest[0]:
            server.fail()
    log = []

    def note(what):
        log.append((what, loop.now().hex()))

    on_timeout = kv._on_timeout

    def logged_on_timeout(req_id):
        note(f"timeout of attempt {kv._pending[req_id].attempts}")
        on_timeout(req_id)
    kv._on_timeout = logged_on_timeout
    t1 = loop.now() + kv.op_timeout
    t2 = t1 + 2 * kv.op_timeout
    loop.call_at(t1, note, "foreign, scheduled before attempt 1 was armed")
    loop.call_at(t2, note, "foreign, scheduled before attempt 2 was armed")
    done = []
    kv.set("k", b"v", done.append)
    loop.call_at(t1, note, "foreign, scheduled after attempt 1 was armed")
    loop.call_at(t1, loop.call_at, t2, note,
                 "foreign, scheduled after attempt 2 was armed")
    loop.run(until=t2 + 1.0)
    assert done and done[0].ok and done[0].replicas_answered == 1
    assert kv.metrics.counter("retries").value == 1
    assert rest[1].peek("k") == b"v"
    return log, next(loop._counter)  # the log, and how many events existed


class TestOpTimeoutEvent:
    def test_op_timeout_event_fires_where_the_timer_did(self, monkeypatch):
        log, scheduled = _timeout_retry_repick_log(ReplicatingKvClient,
                                                   monkeypatch)
        assert [what for what, _ in log] == [
            "foreign, scheduled before attempt 1 was armed",
            "timeout of attempt 1",
            "foreign, scheduled after attempt 1 was armed",
            "foreign, scheduled before attempt 2 was armed",
            "timeout of attempt 2",
            "foreign, scheduled after attempt 2 was armed",
        ]
        assert len({at for _, at in log}) == 2  # T1 and T2, to the bit
        assert (log, scheduled) == _timeout_retry_repick_log(
            _TimerArmedClient, monkeypatch)

    def test_completed_op_disarms_its_timeout(self, cluster_world):
        loop, _, _, kv = cluster_world
        kv.set("k", b"v")
        pending = next(iter(kv._pending.values()))
        armed = pending.timeout
        assert armed.pending and armed.fn == kv._on_timeout
        loop.run(until=loop.now() + 0.01)
        assert pending.finished and pending.timeout is None
        assert armed.cancelled and not armed.fired
        assert kv.metrics.counters.get("timeouts") is None


class TestEndpointsBuiltOnce:
    def test_server_endpoint_is_one_object(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        server = servers[0]
        endpoint = server.endpoint
        assert server.endpoint is endpoint
        assert cluster.endpoint(server.name) is endpoint
        assert (endpoint.ip, endpoint.port) == ("10.2.0.1", 11211)
        assert server.name == server.host.name == "mc0"
        # an extra address on the store host does not move the server
        server.host.network.claim_ip(server.host, "10.2.0.99")
        assert server.endpoint is endpoint

    def test_requests_and_replies_carry_the_cached_endpoints(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        by_name = {s.name: s for s in servers}
        victim = by_name[cluster.replicas_for("k", 2)[0]]
        victim.host.network.claim_ip(victim.host, "10.2.0.99")
        victim.fail()
        victim.recover()
        requests, replies = [], []
        send = kv.host.send
        kv.host.send = lambda pkt: (requests.append(pkt), send(pkt))
        kv.host.set_handler(
            lambda pkt: (replies.append(pkt), kv.handle_response(pkt)))
        assert run_op(loop, kv.set, "k", b"v").replicas_answered == 2
        assert run_op(loop, kv.get, "k").value == b"v"
        assert len(requests) == len(replies) == 4
        assert all(pkt.src is kv._src for pkt in requests)
        assert kv._src.text == "10.1.0.1:11210"
        for pkt in replies:
            server = by_name[pkt.meta["kv_resp"]["server"]]
            assert pkt.src is server.endpoint and pkt.dst is kv._src


class TestCompletionRule:
    """The op completes when every *current* target has answered the
    *current* attempt.  The client tests that with a loop over ``targets``;
    the reference below is the set form it replaced."""

    @staticmethod
    def _covered_reference(pending):
        return pending.attempt_answered >= set(pending.targets)

    @staticmethod
    def _pick(servers, pending, i):
        """0-3: that server, target or not; 4-5: one of the current targets."""
        if i < 4 or not pending.targets:
            return servers[i % 4].name
        return pending.targets[(i - 4) % len(pending.targets)]

    @given(st.lists(st.one_of(
        st.tuples(st.just("ack"), st.integers(0, 5), st.integers(0, 2),
                  st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 5)),
        st.tuples(st.just("retry")),
    ), max_size=25))
    # one target answers and is then decommissioned: one answer, one
    # target left -- and the op is not covered (a count would say it is)
    @example([("ack", 4, 0, True), ("remove", 4)])
    @settings(max_examples=200, deadline=None)
    def test_completes_exactly_when_the_set_form_did(self, steps):
        loop, servers, cluster, kv = make_cluster_world()
        kv.max_retries = 50
        done = []
        kv.set("k", b"v", done.append)
        req_id, pending = next(iter(kv._pending.items()))
        for step in steps:
            if pending.finished:
                break
            if step[0] == "ack":
                # for the current attempt or a superseded one, possibly
                # delivered twice
                _, who, attempts_ago, ok = step
                kv._on_response({
                    "server": self._pick(servers, pending, who),
                    "req_id": req_id, "ok": ok, "op": "set",
                    "attempt": pending.attempts - attempts_ago})
            elif step[0] == "remove":
                # shrinks ``targets`` under the op when it names one
                if len(cluster.servers) > 1:
                    cluster.remove(self._pick(servers, pending, step[1]))
            else:
                # times out: completes on a partial answer, else re-picks
                # targets and starts a new attempt -- not the rule under
                # test, so nothing is asserted about this step
                kv._on_timeout(req_id)
                continue
            assert pending.finished == self._covered_reference(pending), (
                step, pending.targets, pending.attempt_answered)
            assert bool(done) == pending.finished


class TestHashRingRebalance:
    """Consistent hashing's contract under membership churn: adding or
    removing one node only moves (roughly) that node's share of keys, and
    a key's replica *set* never changes by more than one member."""

    KEYS = [f"flow-{i}" for i in range(400)]

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_add_one_node_moves_at_most_its_share(self, n, salt):
        nodes = [f"node-{salt}-{i}" for i in range(n)]
        ring = HashRing(nodes)
        before = {k: ring.lookup(k) for k in self.KEYS}
        ring.add(f"node-{salt}-new")
        moved = sum(1 for k in self.KEYS if ring.lookup(k) != before[k])
        # fair share is 1/(n+1); allow vnode-variance slack
        assert moved / len(self.KEYS) <= 1.0 / (n + 1) + 0.15
        # every moved key moved *to* the new node, never between old ones
        for k in self.KEYS:
            if ring.lookup(k) != before[k]:
                assert ring.lookup(k) == f"node-{salt}-new"

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_remove_one_node_moves_only_its_keys(self, n, salt):
        nodes = [f"node-{salt}-{i}" for i in range(n)]
        ring = HashRing(nodes)
        before = {k: ring.lookup(k) for k in self.KEYS}
        victim = nodes[salt % n]
        ring.remove(victim)
        share = sum(1 for o in before.values() if o == victim) / len(self.KEYS)
        assert share <= 1.0 / n + 0.15
        for k, owner in before.items():
            if owner != victim:
                assert ring.lookup(k) == owner

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_lookup_n_changes_by_at_most_one_on_add(self, n, salt):
        nodes = [f"node-{salt}-{i}" for i in range(n)]
        ring = HashRing(nodes)
        before = {k: set(ring.lookup_n(k, 2)) for k in self.KEYS}
        ring.add(f"node-{salt}-new")
        for k in self.KEYS:
            after = set(ring.lookup_n(k, 2))
            assert len(before[k] - after) <= 1

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_lookup_n_changes_by_at_most_one_on_remove(self, n, salt):
        nodes = [f"node-{salt}-{i}" for i in range(n)]
        ring = HashRing(nodes)
        before = {k: set(ring.lookup_n(k, 2)) for k in self.KEYS}
        victim = nodes[salt % n]
        ring.remove(victim)
        for k in self.KEYS:
            after = set(ring.lookup_n(k, 2))
            # the surviving replica stays in the set
            assert len(before[k] - after) <= 1
            assert before[k] - after <= {victim}


class TestVersioning:
    def test_version_newer_total_order(self):
        from repro.kvstore.memcached import version_newer
        assert version_newer((2, "a"), (1, "z"))
        assert version_newer((1, "b"), (1, "a"))  # writer id breaks ties
        assert version_newer((1, "a"), None)  # any stamp beats legacy
        assert not version_newer(None, (1, "a"))
        assert not version_newer(None, None)
        assert not version_newer((1, "a"), (1, "a"))

    def test_server_refuses_stale_set(self):
        loop = EventLoop()
        net = Network(loop, SeededRng(1))
        host = net.attach(Host("mc", ["10.2.0.1"]))
        server = MemcachedServer(host, loop)
        server._set("k", b"new", version=(3, "w1"))
        server._set("k", b"old", version=(2, "w0"))
        assert server.peek("k") == b"new"
        assert server.peek_version("k") == (3, "w1")
        assert server.stale_sets_refused == 1

    def test_unversioned_set_still_overwrites_unversioned(self):
        loop = EventLoop()
        net = Network(loop, SeededRng(1))
        host = net.attach(Host("mc", ["10.2.0.1"]))
        server = MemcachedServer(host, loop)
        server._set("k", b"one")
        server._set("k", b"two")
        assert server.peek("k") == b"two"

    def test_compare_and_delete_refuses_other_writers_record(self):
        # a recycled flow key: the dead incarnation's late teardown must
        # not destroy the live incarnation's record
        loop = EventLoop()
        net = Network(loop, SeededRng(1))
        host = net.attach(Host("mc", ["10.2.0.1"]))
        server = MemcachedServer(host, loop)
        server._set("k", b"live", version=(2, "w1"))
        assert not server._delete("k", version=(2, "w0"))
        assert not server._delete("k", version=(3, "w0"))  # newer stamp, still not ours
        assert server.peek("k") == b"live"
        assert server.stale_deletes_refused == 2

    def test_compare_and_delete_removes_exact_match(self):
        loop = EventLoop()
        net = Network(loop, SeededRng(1))
        host = net.attach(Host("mc", ["10.2.0.1"]))
        server = MemcachedServer(host, loop)
        server._set("k", b"v", version=(2, "w1"))
        assert server._delete("k", version=(2, "w1"))
        assert server.peek("k") is None
        assert not server._delete("k", version=(2, "w1"))  # already gone

    def test_unversioned_delete_is_unconditional(self):
        loop = EventLoop()
        net = Network(loop, SeededRng(1))
        host = net.attach(Host("mc", ["10.2.0.1"]))
        server = MemcachedServer(host, loop)
        server._set("k", b"v", version=(9, "w"))
        assert server._delete("k")
        server._set("k2", b"v")  # legacy unversioned record
        assert server._delete("k2", version=(1, "w"))  # versioned clears legacy

    def test_refused_set_reports_superseding_version(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, lambda cb: kv.set("k", b"ghost", cb, version=(5, "w0")))
        result = run_op(loop, lambda cb: kv.set("k", b"mine", cb,
                                                version=(1, "w1")))
        assert result.superseded_by == (5, "w0")

    def test_versioned_delete_travels_through_client(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, lambda cb: kv.set("k", b"v", cb, version=(3, "w")))
        holders = [s for s in servers if s.peek("k")]
        run_op(loop, lambda cb: kv.delete("k", cb, version=(2, "other")))
        assert all(s.peek("k") == b"v" for s in holders)  # refused everywhere
        run_op(loop, lambda cb: kv.delete("k", cb, version=(3, "w")))
        assert all(s.peek("k") is None for s in holders)

    def test_set_version_travels_to_replicas_and_back(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, lambda cb: kv.set("k", b"v", cb, version=(7, "w")))
        for s in servers:
            if s.peek("k"):
                assert s.peek_version("k") == (7, "w")
        result = run_op(loop, kv.get, "k")
        assert result.ok and result.version == (7, "w")


class TestNewestWinsAndReadRepair:
    def test_get_returns_newest_of_diverged_replicas(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, lambda cb: kv.set("k", b"old", cb, version=(1, "w")))
        # one replica silently diverges ahead (e.g. our view missed a write)
        holders = [s for s in servers if s.peek("k")]
        holders[0]._set("k", b"newest", version=(5, "w"))
        result = run_op(loop, kv.get, "k")
        assert result.ok and result.value == b"newest"
        assert result.version == (5, "w")

    def test_read_repair_refills_restarted_replica(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        run_op(loop, lambda cb: kv.set("k", b"v", cb, version=(1, "w")))
        victim = next(s for s in servers if s.peek("k"))
        victim.fail()
        victim.recover()  # Memcached keeps nothing: back, but empty
        assert victim.peek("k") is None
        result = run_op(loop, kv.get, "k")
        assert result.ok and result.value == b"v"
        loop.run(until=loop.now() + 0.5)  # fire-and-forget repair write lands
        assert victim.peek("k") == b"v"
        assert victim.peek_version("k") == (1, "w")
        assert kv.metrics.counter("read_repairs").value >= 1

    def test_read_repair_can_be_disabled(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        kv.self_healing = False
        run_op(loop, lambda cb: kv.set("k", b"v", cb, version=(1, "w")))
        victim = next(s for s in servers if s.peek("k"))
        victim.fail()
        victim.recover()
        result = run_op(loop, kv.get, "k")
        assert result.ok
        loop.run(until=loop.now() + 0.5)
        assert victim.peek("k") is None


class TestHintedHandoff:
    def test_silent_replica_gets_hint_then_flush_on_return(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        targets = cluster.replicas_for("k", 2)
        victim = next(s for s in servers if s.name == targets[0])
        victim.fail()
        result = run_op(loop, lambda cb: kv.set("k", b"v", cb, version=(1, "w")))
        assert result.ok  # partial answers are enough
        assert len(kv._hints.get(victim.name, ())) == 1
        cluster.mark_dead(victim.name)  # detection catches up with reality
        victim.recover()  # empty
        cluster.mark_live(victim.name)  # membership re-admits it -> flush
        loop.run(until=loop.now() + 0.5)
        assert victim.peek("k") == b"v"
        assert len(kv._hints.get(victim.name, ())) == 0
        assert kv.metrics.counter("hints_flushed").value == 1

    def test_delete_supersedes_queued_hint(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        targets = cluster.replicas_for("k", 2)
        victim = next(s for s in servers if s.name == targets[0])
        victim.fail()
        run_op(loop, lambda cb: kv.set("k", b"v", cb, version=(1, "w")))
        assert sum(len(h) for h in kv._hints.values()) == 1
        run_op(loop, kv.delete, "k")
        assert sum(len(h) for h in kv._hints.values()) == 0
        victim.recover()
        cluster.mark_live(victim.name)
        loop.run(until=loop.now() + 0.5)
        assert victim.peek("k") is None

    def test_hint_queue_is_bounded(self, cluster_world):
        from repro.kvstore.client import MAX_HINTS_PER_SERVER
        loop, servers, cluster, kv = cluster_world
        for i in range(MAX_HINTS_PER_SERVER + 5):
            kv._add_hint("mc0", f"k{i}", (1, "w"), b"v")
        assert len(kv._hints.get("mc0", ())) == MAX_HINTS_PER_SERVER
        assert kv.metrics.counter("hints_dropped").value == 5


class TestFailOpenAndPruning:
    def test_no_live_servers_fails_via_callback_not_exception(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        for s in servers:
            cluster.mark_dead(s.name)
        results = []
        kv.set("k", b"v", results.append)  # must not raise
        assert not results  # delivered asynchronously, not inline
        loop.run(until=loop.now() + 0.1)
        assert len(results) == 1 and not results[0].ok
        assert kv.metrics.counter("no_live_servers").value == 1

    def test_stale_straggler_cannot_complete_retried_op(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        done = []
        kv.set("k", b"v", done.append)
        req_id, pending = next(iter(kv._pending.items()))
        old_target = pending.targets[0]
        # as if the op timed out and the retry re-picked its replica set
        pending.attempts = 2
        pending.targets = [s.name for s in servers
                           if s.name != old_target][:2]
        pending.attempt_answered = set()
        kv._on_response({"server": old_target, "req_id": req_id,
                         "ok": True, "op": "set", "attempt": 1})
        # the stale ack contributes data but must not complete the op
        assert not pending.finished and not done
        for name in pending.targets:
            kv._on_response({"server": name, "req_id": req_id,
                             "ok": True, "op": "set", "attempt": 2})
        assert pending.finished and done and done[0].ok

    def test_remove_prunes_timeouts_hints_and_pending(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        victim = servers[0]
        kv._consecutive_timeouts[victim.name] = 2
        kv._add_hint(victim.name, "k", (1, "w"), b"v")
        cluster.remove(victim.name)
        assert victim.name not in kv._consecutive_timeouts
        assert len(kv._hints.get(victim.name, ())) == 0
        assert victim.name not in cluster.servers
        assert victim.name not in cluster.ring

    def test_remove_releases_pending_op_waiting_on_server(self, cluster_world):
        loop, servers, cluster, kv = cluster_world
        key = "k"
        targets = cluster.replicas_for(key, 2)
        victim = next(s for s in servers if s.name == targets[0])
        other = next(s for s in servers if s.name == targets[1])
        victim.fail()
        done = []
        kv.set(key, b"v", done.append)
        loop.run(until=loop.now() + 0.01)  # the live replica answers
        assert not done  # still waiting on the dead one
        cluster.remove(victim.name)
        assert done and done[0].ok
        assert other.peek(key) == b"v"


class TestMembershipEpochs:
    def test_every_change_bumps_epoch_and_notifies(self, cluster_world):
        _, servers, cluster, _ = cluster_world
        events = []
        cluster.add_listener(lambda ev, name: events.append((ev, name)))
        e0 = cluster.epoch
        cluster.mark_dead(servers[0].name)
        cluster.mark_live(servers[0].name)
        cluster.remove(servers[1].name)
        assert cluster.epoch == e0 + 3
        assert events == [("dead", servers[0].name),
                          ("live", servers[0].name),
                          ("removed", servers[1].name)]

    def test_redundant_changes_do_not_bump(self, cluster_world):
        _, servers, cluster, _ = cluster_world
        e0 = cluster.epoch
        cluster.mark_live(servers[0].name)  # already live
        cluster.mark_dead("nonexistent")
        assert cluster.epoch == e0


class TestQuarantine:
    def test_mark_live_refused_during_quarantine(self, cluster_world):
        _, servers, cluster, _ = cluster_world
        cluster.mark_dead(servers[0].name, until=5.0)
        assert not cluster.mark_live(servers[0].name, now=1.0)
        assert servers[0].name not in cluster.ring

    def test_mark_live_allowed_after_quarantine(self, cluster_world):
        _, servers, cluster, _ = cluster_world
        cluster.mark_dead(servers[0].name, until=5.0)
        assert cluster.mark_live(servers[0].name, now=5.0)
        assert servers[0].name in cluster.ring

    def test_mark_dead_keeps_longest_quarantine(self, cluster_world):
        _, servers, cluster, _ = cluster_world
        cluster.mark_dead(servers[0].name, until=5.0)
        cluster.mark_dead(servers[0].name, until=3.0)
        assert not cluster.mark_live(servers[0].name, now=4.0)

    def test_mark_live_without_clock_is_unconditional(self, cluster_world):
        _, servers, cluster, _ = cluster_world
        cluster.mark_dead(servers[0].name, until=5.0)
        assert cluster.mark_live(servers[0].name)  # legacy caller, no clock
