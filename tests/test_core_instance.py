"""YODA instance integration: the paper's mechanisms at packet level.

Everything here runs against a real wired deployment (L4 LB + instances +
TCPStore + backends) built by the experiment harness.
"""

import ast
import functools
import hashlib
import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.flowstate import FlowPhase, yoda_isn
from repro.core import instance as instance_module
from repro.core.instance import YodaCostModel, YodaInstance
from repro.core.policy import VipPolicy
from repro.core.tcpstore import TcpStore
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient
from repro.kvstore.client import MemcachedCluster, ReplicatingKvClient
from repro.kvstore.memcached import MemcachedServer
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import ACK, Packet
from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from tests.trace_tools import trace_filter


def make_bed(**overrides) -> Testbed:
    defaults = dict(
        seed=99, lb="yoda", num_lb_instances=4, num_store_servers=3,
        num_backends=3, corpus="flat", flat_object_count=3,
        flat_object_bytes=30_000, client_jitter=0.0, trace_packets=True,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def fetch(bed, path="/obj/0.bin", timeout=30.0, retries=0, deadline=120.0):
    results = []
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=timeout, retries=retries)
    browser.fetch(path, results.append)
    bed.run(deadline)
    assert results, "fetch never concluded"
    return results[0]


def serving_instance(bed):
    for inst in bed.yoda.instances:
        if inst.flows:
            return inst
    return None


class TestBasicOperation:
    def test_end_to_end_fetch_through_vip(self):
        bed = make_bed()
        result = fetch(bed)
        assert result.ok
        assert len(result.response.body) == 30_000

    def test_client_only_ever_talks_to_vip(self):
        bed = make_bed()
        fetch(bed)
        for rec in trace_filter(bed.trace, point="client-0", direction="rx"):
            assert rec.src.startswith("100.0.0.1:80"), rec

    def test_server_only_ever_talks_to_vip(self):
        bed = make_bed()
        fetch(bed)
        for rec in trace_filter(bed.trace, point="srv-0", direction="rx"):
            assert rec.src.startswith("100.0.0.1:"), rec

    def test_synack_isn_is_the_hash(self):
        bed = make_bed()
        fetch(bed)
        synacks = [r for r in trace_filter(bed.trace, point="client-0", direction="rx")
                   if r.flags == "S."]
        assert synacks
        client_ep = Endpoint.parse(synacks[0].dst)
        vip_ep = Endpoint("100.0.0.1", 80)
        assert synacks[0].seq == yoda_isn(client_ep, vip_ep)

    def test_server_syn_reuses_client_isn(self):
        """The paper's trick: client->server bytes need no seq rewriting."""
        bed = make_bed()
        fetch(bed)
        client_syns = [r for r in bed.trace.records
                       if r.flags == "S" and r.dst.startswith("100.0.0.1:80")]
        server_syns = [r for r in bed.trace.records
                       if r.flags == "S" and r.dst.startswith("10.3.")]
        assert client_syns and server_syns
        assert server_syns[0].seq == client_syns[0].seq

    def test_flow_state_cleaned_up_after_completion(self):
        bed = make_bed()
        fetch(bed)
        bed.run(40.0)  # linger + gc
        for inst in bed.yoda.instances:
            assert not inst.flows
        live_keys = sum(len(s) for s in bed.yoda.store_servers)
        assert live_keys == 0

    def test_storage_before_synack_ordering(self):
        """storage-a completes before the SYN-ACK leaves (Figure 3)."""
        bed = make_bed()
        fetch(bed)
        synack = next(r for r in bed.trace.records if r.flags == "S."
                      and r.src.startswith("100.0.0.1"))
        stores = [r for r in bed.trace.records
                  if r.dst.endswith(":11211") and r.time <= synack.time]
        assert stores, "no TCPStore write before the SYN-ACK"

    def test_traffic_accounting_per_vip(self):
        bed = make_bed()
        fetch(bed)
        bed.run(1.0)  # let the monitor collect instance counters
        assert bed.yoda.controller.traffic_stats.get("100.0.0.1", 0) > 0


class TestFailureRecovery:
    @pytest.mark.parametrize("fail_after", [0.05, 0.2, 0.5])
    def test_flow_survives_instance_failure(self, fail_after):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(fail_after, lambda: (
            serving_instance(bed).fail() if serving_instance(bed) else None
        ))
        bed.run(120.0)
        assert results and results[0].ok, "flow broke across instance failure"

    def test_recovery_uses_tcpstore(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.4, lambda: serving_instance(bed).fail())
        bed.run(120.0)
        recoveries = sum(
            inst.metrics.counters["flows_recovered"].value
            for inst in bed.yoda.instances
            if "flows_recovered" in inst.metrics.counters
        )
        assert recoveries >= 1
        assert results[0].ok

    def test_client_never_resends_http_request_on_failure(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.4, lambda: serving_instance(bed).fail())
        bed.run(120.0)
        assert results[0].ok
        assert results[0].retries_used == 0

    def test_failure_before_synack_client_syn_retry_starts_fresh(self):
        bed = make_bed()
        # fail every instance before the client connects, then recover
        # them all except one: the retransmitted SYN lands on a live one
        for inst in bed.yoda.instances:
            inst.fail()
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def recover_all():
            for inst in bed.yoda.instances:
                inst.recover()

        bed.loop.call_later(1.0, recover_all)
        bed.run(60.0)
        assert results and results[0].ok

    def test_two_simultaneous_failures(self):
        bed = make_bed(num_lb_instances=6, flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def fail_two():
            victims = [i for i in bed.yoda.instances][:2]
            serving = serving_instance(bed)
            if serving is not None and serving not in victims:
                victims[0] = serving
            for v in victims:
                v.fail()

        bed.loop.call_later(0.4, fail_two)
        bed.run(120.0)
        assert results and results[0].ok

    def test_recovered_instance_translation_is_seamless(self):
        """After recovery the client sees perfectly contiguous bytes."""
        bed = make_bed(flat_object_bytes=800_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.3, lambda: serving_instance(bed).fail())
        bed.run(120.0)
        assert results[0].ok
        assert len(results[0].response.body) == 800_000


class TestElasticity:
    def test_graceful_instance_removal_keeps_flows(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def drain_serving():
            inst = serving_instance(bed)
            if inst is not None:
                bed.yoda.controller.remove_instance(inst.name)

        bed.loop.call_later(0.4, drain_serving)
        bed.run(120.0)
        assert results and results[0].ok

    def test_added_instance_receives_new_flows(self):
        bed = make_bed(num_lb_instances=1)
        spare = bed.yoda.new_spare_instance()
        bed.yoda.controller.add_instance(spare)
        bed.run(1.0)
        for port_offset in range(30):
            fetch(bed, deadline=3.0)
        got = spare.metrics.counters.get("flows_opened")
        assert got is not None and got.value > 0


class TestPolicyBehaviour:
    def test_policy_update_does_not_break_inflight_flow(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def flip_policy():
            from repro.core.policy import weighted_split

            controller = bed.yoda.controller
            new = controller.policies[bed.vip].updated(
                rules=[weighted_split("only-2", "*", {"srv-2": 1.0})]
            )
            controller.update_policy(new)

        bed.loop.call_later(0.3, flip_policy)
        bed.run(120.0)
        assert results and results[0].ok

    def test_new_flows_follow_new_policy(self):
        bed = make_bed()
        from repro.core.policy import weighted_split

        controller = bed.yoda.controller
        new = controller.policies[bed.vip].updated(
            rules=[weighted_split("only-1", "*", {"srv-1": 1.0})]
        )
        controller.update_policy(new)
        bed.run(0.5)
        before = bed.backends["srv-1"].requests_served
        fetch(bed, deadline=5.0)
        fetch(bed, path="/obj/1.bin", deadline=5.0)
        assert bed.backends["srv-1"].requests_served == before + 2

    def test_backend_failure_detected_and_avoided(self):
        bed = make_bed()
        bed.backends["srv-0"].fail()
        bed.run(1.5)  # monitor detects within 600 ms
        for _ in range(8):
            result = fetch(bed, deadline=8.0)
            assert result.ok
            assert result.response.headers.get("X-Backend") != "srv-0"


class TestPerFlowCost:
    """What a flow needs per tunnelled packet is table hits: hashing and
    address validation are paid per flow, not per packet."""

    @staticmethod
    def _fetch_counting(monkeypatch, size):
        """One fetch through a 1-instance bed.  Returns (SHA-256 digests
        made by the whole run, Endpoints validated while tunnelling)."""
        bed = make_bed(num_lb_instances=1, flat_object_bytes=size,
                       trace_packets=False)
        counts = {"sha": 0, "endpoints": 0}
        sha256, post_init = hashlib.sha256, Endpoint.__post_init__

        def counted_sha256(*args, **kwargs):
            counts["sha"] += 1
            return sha256(*args, **kwargs)

        def counted_post_init(self):
            counts["endpoints"] += 1
            post_init(self)

        monkeypatch.setattr(hashlib, "sha256", counted_sha256)
        monkeypatch.setattr(Endpoint, "__post_init__", counted_post_init)
        results = []
        BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                      http_timeout=30.0, retries=0).fetch("/obj/0.bin",
                                                          results.append)
        instance = bed.yoda.instances[0]
        while not any(flow.phase.flow_phase is FlowPhase.TUNNEL
                      for flow in instance.flows.values()):
            bed.loop.run_for(0.001)
        before_tunnel = counts["endpoints"]
        while not results:
            bed.loop.run_for(0.001)
        assert results[0].ok and len(results[0].response.body) == size
        monkeypatch.undo()
        return counts["sha"], counts["endpoints"] - before_tunnel

    def test_digests_do_not_grow_with_the_object(self, monkeypatch):
        small_sha, small_eps = self._fetch_counting(monkeypatch, 20_000)
        large_sha, large_eps = self._fetch_counting(monkeypatch, 200_000)
        assert small_sha == large_sha > 0
        assert small_eps == large_eps == 0


# ---------------------------------------------------------------------------
# One event per packet: the collapsed schedule IS the old two-event chain.
# ---------------------------------------------------------------------------
class _ChainedInstance:
    """The deleted cpu -> latency -> dispatch chain, kept as the reference:
    one event when the CPU work completes, a second ``packet_latency``
    later, the host's liveness checked at both."""

    def __init__(self, host, loop, cost, dispatched):
        self.host, self.loop, self.cost = host, loop, cost
        self.cpu = CpuModel(loop, owner=host.name)
        self.dispatched = dispatched
        host.set_handler(self._on_packet_raw)

    def _on_packet_raw(self, pkt):
        self.cpu.execute(self.cost.packet_cost(pkt), self._after_cpu, pkt,
                         phase="packet")

    def _after_cpu(self, pkt):
        if self.host.failed:
            return
        self.loop.call_later(self.cost.packet_latency, self._dispatch, pkt)

    def _dispatch(self, pkt):
        if self.host.failed:
            return
        self.dispatched.append((self.loop.now().hex(), pkt.packet_id))


def _real_instance(host, loop, cost, dispatched):
    store_host = host.network.attach(Host("mc", ["10.2.0.1"]))
    cluster = MemcachedCluster([MemcachedServer(store_host, loop)])
    kv = ReplicatingKvClient(host, loop, cluster, replicas=1)
    inst = YodaInstance(host, loop, SeededRng(1), TcpStore(kv),
                        cost_model=cost)
    inst.install_policy(VipPolicy(vip="100.0.0.1", backends={}, rules=[]))
    # every packet here is an ACK of a flow the instance does not know, so
    # _dispatch hands it to the recovery lookup: that is out of scope here
    inst._recover = lambda rkey, pkt, *lookup: dispatched.append(
        (loop.now().hex(), pkt.packet_id))
    return inst


_times = st.floats(0.0, 0.05, allow_nan=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("pkt"), _times, st.integers(0, 1460)),
        st.tuples(st.just("work"), _times, st.floats(0.0, 2e-3)),
        st.tuples(st.just("slow"), _times, st.floats(0.25, 40.0)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_ops, cores=st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0]),
       latency=st.floats(0.0, 1e-3), fail_at=st.none() | _times)
# arrivals early enough behind queued work that now + (finish - now) is
# not finish: these separate the chain's float from finish + latency
@example(ops=[("work", 0.0, 2e-3), ("pkt", 3.9105e-05, 61)], cores=1.0,
         latency=4e-4, fail_at=None)
@example(ops=[("work", 0.0, 2e-3), ("pkt", 1.7986e-05, 1230)], cores=1.0,
         latency=4e-4, fail_at=None)
def test_single_event_dispatch_is_the_two_event_chain(ops, cores, latency,
                                                      fail_at):
    """Same arrivals, payload sizes, core counts, slowdown changes and
    foreign CPU work (rule scans) into both: the (dispatch time, packet)
    sequences are equal as floats, bit for bit, and a host that failed by
    the fire time dispatches nothing in either."""
    cost = YodaCostModel(packet_latency=latency)
    runs = []
    for build in (_ChainedInstance, _real_instance):
        loop = EventLoop()
        host = Network(loop, SeededRng(1)).attach(Host("yoda", ["10.1.0.1"]))
        dispatched = []
        inst = build(host, loop, cost, dispatched)
        inst.cpu.cores = cores
        for n, (kind, at, arg) in enumerate(ops):
            if kind == "pkt":
                pkt = Packet(src=Endpoint("172.16.0.1", 40000),
                             dst=Endpoint("100.0.0.1", 80), flags=ACK,
                             payload=b"x" * arg, packet_id=n)
                loop.call_at(at, host.deliver, pkt)
            elif kind == "work":
                loop.call_at(at, inst.cpu.execute, arg)
            else:
                loop.call_at(at, inst.cpu.set_slowdown, arg)
        if fail_at is not None:
            loop.call_at(fail_at, host.fail)
        loop.run(until=5.0)
        if fail_at is not None:
            assert all(float.fromhex(t) < fail_at for t, _ in dispatched)
        runs.append(dispatched)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# The flow table is total: every phase names a cell for every event, so a
# new phase cannot fall through to a default.
# ---------------------------------------------------------------------------
_ROWS = {name.strip("_").lower(): row
         for name, row in vars(instance_module).items()
         if isinstance(row, instance_module._Phase)}
_EVENTS = ("client", "server", "replies", "timers")


def _is_handler(cell):
    """A function of core/instance.py (a module function or a static
    method of one of its classes)."""
    return (inspect.isfunction(cell)
            and cell.__module__ == instance_module.__name__)


@pytest.mark.parametrize("phase,event",
                         [(p, e) for p in sorted(_ROWS) for e in _EVENTS])
def test_flow_table_cell_names_a_handler_or_a_drop(phase, event):
    cell = getattr(_ROWS[phase], event)
    if event in ("client", "server"):
        # a packet cell is one handler; _drop is the explicit drop
        assert _is_handler(cell), (phase, event, cell)
        assert list(inspect.signature(cell).parameters) == [
            "inst", "flow", "pkt", "policy"], (phase, event)
    else:
        # the store replies / timers the phase waits on; () drops them all
        assert isinstance(cell, tuple), (phase, event, cell)
        assert all(_is_handler(h) for h in cell), (phase, event, cell)


def test_every_flow_phase_has_a_row():
    assert len(_ROWS) == 6
    assert {row.flow_phase for row in _ROWS.values()} == set(FlowPhase)


def test_every_store_reply_and_timer_is_taken_by_some_row():
    """Each handler a call site routes through ``_on_reply`` / ``_on_timer``
    (directly, or as the reply of a ``_store`` write) is listed by at least
    one row of that column: none is dropped in every phase."""
    tree = ast.parse(inspect.getsource(instance_module))
    routed = {"replies": set(), "timers": set()}
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        args = call.args
        if isinstance(call.func, ast.Name) and call.func.id == "_store":
            routed["replies"].add(ast.unparse(args[4]))
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Attribute) and arg.attr in ("_on_reply",
                                                               "_on_timer"):
                column = "replies" if arg.attr == "_on_reply" else "timers"
                routed[column].add(ast.unparse(args[i + 2]))
    # the reply routed inside _store itself is its parameter, not a handler
    routed["replies"].discard("reply")
    assert routed == {
        "replies": {"_syn_stored", "_TlsFlow.hello_stored",
                    "_TlsFlow.ticket_checked", "_server_stored"},
        "timers": {"_connect_server", "_server_syn_rto", "_finish_flow",
                   "_TlsFlow.resend"},
    }
    for column, names in routed.items():
        taken = {h for row in _ROWS.values() for h in getattr(row, column)}
        for name in names:
            handler = functools.reduce(getattr, name.split("."),
                                       instance_module)
            assert handler in taken, (column, name)
