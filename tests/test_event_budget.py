"""The event budget of a tunnelled transfer and the call budget of a
connection, as exact counts.

Events fired per transmitted packet is what the event loop's share of a
run scales with.  A packet through the LB tier costs: its network
delivery to the router, the mux's 250 us forwarding hop, ONE event at the
instance (CPU completion + driver latency, scheduled together at
arrival), and the delivery of the translated packet.  The simulation is
deterministic, so the count below repeats exactly: it is a count, not a
timing, and the next change that adds an event per packet fails here with
the number in the message.

A connection is priced the same way.  What a 1 KB fetch costs the host is
its packets plus what the code does per flow and per kv op; everything
that is a constant of the process, the host, the flow or the op is built
once at that scope, and ``test_connection_budget`` counts the things that
used to be rebuilt (endpoints, address validations, registry lookups)
and the python-level calls of the whole fetch.

A segment is priced last: ``test_segment_budget`` takes one warmed 100 KB
fetch -- 271 packets, almost all of them established-state segments and
their tunnelled copies -- and pins what the host does for it: events
scheduled, events really cancelled (a retransmission timer pushed out by
an ACK is neither), calls into ``repro.tcp.segment`` (the per-segment
paths spell the arithmetic out), and python-level calls altogether.
"""

import json
import sys

from repro.chaos.faults import apply_fault, crash
from repro.chaos.scenario import Scenario, ScenarioEngine
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient
from repro.net import addresses
from repro.net.addresses import Endpoint
from repro.net.network import Network
from repro.sim import tracing
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry
from repro.tcp import segment

# one 100 KB fetch, seed 2016, counted from the fetch call to its result
PINNED_EVENTS_FIRED = 443
PINNED_TX_PACKETS = 262
MAX_EVENTS_PER_PACKET = 2.05


def _one_object_world(object_bytes):
    """The world all three budgets are counted in."""
    return Testbed(TestbedConfig(
        seed=2016, lb="yoda", num_lb_instances=2, num_store_servers=3,
        num_backends=2, corpus="flat", flat_object_count=1,
        flat_object_bytes=object_bytes, client_jitter=0.0,
    ))


def test_events_per_transmitted_packet():
    bed = _one_object_world(100_000)
    tx_packets = bed.network.metrics.counter("tx_packets")
    bed.run(1.0)  # mappings pushed, first health-check rounds done
    results = []
    BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                  http_timeout=30.0, retries=0).fetch("/obj/0.bin",
                                                      results.append)
    tx_before = tx_packets.value
    fired = 0
    while not results:
        fired += bed.loop.run_for(0.01)
    tx = tx_packets.value - tx_before
    assert results[0].ok and len(results[0].response.body) == 100_000
    assert tx == PINNED_TX_PACKETS, f"{tx} packets transmitted"
    ratio = fired / tx
    assert ratio <= MAX_EVENTS_PER_PACKET, (
        f"{fired} events fired for {tx} transmitted packets = {ratio:.3f} "
        f"per packet (budget {MAX_EVENTS_PER_PACKET})")
    assert fired == PINNED_EVENTS_FIRED, (
        f"{fired} events fired for {tx} transmitted packets; pinned "
        f"{PINNED_EVENTS_FIRED} ({fired - PINNED_EVENTS_FIRED:+d})")


# the same world, second fetch: one 100 KB fetch warmed the paths, a
# simulated second let its flow be torn down, then one fetch is counted
PINNED_SEGMENT_TX_PACKETS = 271
PINNED_SEGMENT_EVENTS_FIRED = 458
PINNED_SEGMENT_EVENTS_SCHEDULED = 508  # 538 with a cancel-and-reschedule Timer
PINNED_SEGMENT_EVENTS_CANCELLED = 10  # 40: one per ACK that left data in flight
# handshakes, the FIN exchange and the instance's connection phase still
# call the functions; no established-state segment does (1,387 before)
MAX_SEGMENT_MODULE_CALLS = 18
# python-level calls, measured on 3.11 with this change (10,540 = 38.9 per
# packet before it, 25.8 now)
MEASURED_CALLS_PER_SEGMENT_FETCH = 7005
MAX_CALLS_PER_SEGMENT_FETCH = MEASURED_CALLS_PER_SEGMENT_FETCH * 1.05


def test_segment_budget():
    bed = _one_object_world(100_000)
    tx_packets = bed.network.metrics.counter("tx_packets")
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=30.0, retries=0)

    def fetch():
        results = []
        browser.fetch("/obj/0.bin", results.append)
        fired = 0
        while not results:
            fired += bed.loop.run_for(0.01)
        assert results[0].ok and len(results[0].response.body) == 100_000
        return fired

    bed.run(1.0)
    fetch()
    bed.run(1.0)  # FLOW_LINGER: the warm-up flow's deletes are done

    watched = {
        EventLoop.call_at.__code__: "scheduled",
        # reached only when a pending event is cancelled
        EventLoop._note_cancel.__code__: "cancelled",
    }
    seen = dict.fromkeys(watched.values(), 0)
    calls = segment_calls = 0

    def profile(frame, event, arg):
        nonlocal calls, segment_calls
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        what = watched.get(code)
        if what is not None:
            seen[what] += 1
        elif code.co_filename == segment.__file__:
            segment_calls += 1

    tx_before = tx_packets.value
    sys.setprofile(profile)
    try:
        fired = fetch()
    finally:
        sys.setprofile(None)
    tx = tx_packets.value - tx_before

    # every count in one message: a change that moves one usually moves more
    measured = (f"{tx} packets, {fired} events fired, {seen['scheduled']} "
                f"scheduled, {seen['cancelled']} cancelled, {segment_calls} "
                f"calls into repro.tcp.segment, {calls} python calls = "
                f"{calls / tx:.1f} per packet")
    assert (tx, fired) == (PINNED_SEGMENT_TX_PACKETS,
                           PINNED_SEGMENT_EVENTS_FIRED), measured
    assert seen == {"scheduled": PINNED_SEGMENT_EVENTS_SCHEDULED,
                    "cancelled": PINNED_SEGMENT_EVENTS_CANCELLED}, measured
    assert segment_calls <= MAX_SEGMENT_MODULE_CALLS, measured
    assert calls <= MAX_CALLS_PER_SEGMENT_FETCH, (
        f"{measured}; measured {MEASURED_CALLS_PER_SEGMENT_FETCH} with the "
        f"change that added this test (budget "
        f"{MAX_CALLS_PER_SEGMENT_FETCH:.0f})")


# 20 sequential 1 KB fetches, seed 2016, counted from the first fetch call
# to one simulated second after the last result (FLOW_LINGER: both deletes
# of every flow are inside the window)
BUDGET_FETCHES = 20
PINNED_CONN_EVENTS_FIRED = 1631
PINNED_CONN_TX_PACKETS = 840
# python-level calls (sys.setprofile "call" events) per fetch, measured on
# 3.11 with this change; an upper bound only -- 3.12 inlines comprehensions
# and counts fewer
MEASURED_CALLS_PER_FETCH = 1463.8  # 2,672.2 before PR 17, 1,794.2 before PR 18
MAX_CALLS_PER_FETCH = MEASURED_CALLS_PER_FETCH * 1.05


def _kv_counts(bed):
    """(kv ops issued by the instances, packets in or out of a store host)."""
    ops = sum(counter.value
              for inst in bed.yoda.instances
              for name, counter in inst.tcpstore.kv.metrics.counters.items()
              if name.endswith("_issued"))
    pkts = sum(server.host.metrics.counter(name).value
               for server in bed.yoda.store_servers
               for name in ("rx_packets", "tx_packets"))
    return ops, pkts


def test_connection_budget():
    bed = _one_object_world(1_000)
    tx_packets = bed.network.metrics.counter("tx_packets")
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=30.0, retries=0)

    def fetch(n):
        fired = 0
        for _ in range(n):
            results = []
            browser.fetch("/obj/0.bin", results.append)
            while not results:
                fired += bed.loop.run_for(0.01)
            assert results[0].ok and len(results[0].response.body) == 1_000
        return fired + bed.loop.run_for(1.0)

    bed.run(1.0)
    # warm-up: every address has been validated, every op kind has run on
    # every instance a fetch can land on, and the flows are torn down
    fetch(6)

    watched = {
        Endpoint.__post_init__.__code__: "endpoints",
        addresses._check_ip.__code__: "full_validations",
        MetricRegistry.counter.__code__: "registry_lookups",
        MetricRegistry.histogram.__code__: "registry_lookups",
        json.dumps.__code__: "json_dumps",
    }
    seen = dict.fromkeys(watched.values(), 0)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        calls += 1
        what = watched.get(frame.f_code)
        if what is None:
            return
        if (what == "registry_lookups" and not
                frame.f_back.f_code.co_filename.endswith("kvstore/client.py")):
            return
        seen[what] += 1

    ops_before, kv_pkts_before = _kv_counts(bed)
    tx_before = tx_packets.value
    sys.setprofile(profile)
    try:
        fired = fetch(BUDGET_FETCHES)
    finally:
        sys.setprofile(None)
    n = BUDGET_FETCHES
    ops, kv_pkts = _kv_counts(bed)
    tx = tx_packets.value - tx_before

    # (a) endpoints: the client's local endpoint and the SNAT source
    assert seen["endpoints"] <= 3 * n, (
        f"{seen['endpoints'] / n:.1f} Endpoint constructions per fetch")
    assert seen["full_validations"] == 0, (
        f"{seen['full_validations']} addresses validated in full after "
        f"warm-up")
    # (b) the kv client resolves its per-op counters once per (client, op)
    assert seen["registry_lookups"] == 0, (
        f"{seen['registry_lookups']} MetricRegistry lookups from "
        f"kvstore/client.py after the first op of each kind")
    # (c) the schedule: storage-a, storage-b (two sets), two deletes, each
    # to two replicas, request + reply
    assert seen["json_dumps"] == 2 * n
    assert ops - ops_before == 5 * n
    assert kv_pkts - kv_pkts_before == 20 * n
    assert tx == PINNED_CONN_TX_PACKETS, f"{tx} packets transmitted"
    assert fired == PINNED_CONN_EVENTS_FIRED, f"{fired} events fired"
    # (d) everything else, as python-level calls
    assert calls <= MAX_CALLS_PER_FETCH * n, (
        f"{calls / n:.1f} python calls per fetch; measured "
        f"{MEASURED_CALLS_PER_FETCH} with the change that added this test "
        f"(budget {MAX_CALLS_PER_FETCH:.1f})")


# a short rolling-crash schedule (an instance and a store replica die and
# revive, twice), run through ScenarioEngine and as the same steps on a bare
# Testbed: what a packet costs only because the run is audited
CAPTURE_SCENARIO = Scenario(
    name="capture-budget-rolling-crash",
    description="rolling instance + store-replica crashes under "
                "closed-loop bulk transfers",
    faults=[spec for k in range(2) for spec in (
        crash(0.5 + 1.5 * k, "lb:serving", duration=1.0),
        crash(0.6 + 1.5 * k, f"store:{k}", duration=0.8),
    )],
    duration=3.5, drain=3.0, clients=3, object_bytes=150_000, object_count=4,
    num_lb_instances=3, num_store_servers=3, num_backends=2,
)
# python-level calls per transmitted packet that exist only because the run
# is audited, measured on 3.11 (12.49 on this schedule when every capture
# built a record, 2.27 while the digest also captured each delivery): the
# flow table's record() and the per-run work of the monitors spread over
# the packets
MEASURED_CAPTURE_CALLS_PER_PACKET = 1.27
MAX_CAPTURE_CALLS_PER_PACKET = MEASURED_CAPTURE_CALLS_PER_PACKET * 1.05


def _count_calls(run, watched):
    """(python-level calls, calls per watched code object) of ``run()``."""
    seen = dict.fromkeys(watched.values(), 0)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        calls += 1
        what = watched.get(frame.f_code)
        if what is not None:
            seen[what] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, seen, result


def test_capture_budget():
    s = CAPTURE_SCENARIO
    watched = {
        tracing.TraceRecord.__init__.__code__: "trace_records",
        # the rare capture site: drops, duplicates, re-routes
        Network._record.__code__: "rare_captures",
    }

    engine = ScenarioEngine(s, lb="yoda", seed=2016)
    audited_calls, seen, outcome = _count_calls(engine.run, watched)
    assert outcome.ok, outcome.render()

    def unaudited():
        """``ScenarioEngine.build()`` + ``run()``, step for step, minus
        every monitor and tap."""
        bed = Testbed(TestbedConfig(
            seed=2016, lb="yoda", num_lb_instances=s.num_lb_instances,
            num_store_servers=s.num_store_servers,
            num_backends=s.num_backends,
            client_one_way_latency=s.client_one_way_latency, corpus="flat",
            flat_object_bytes=s.object_bytes,
            flat_object_count=s.object_count,
        ))
        processes = bed.closed_loop(s.clients, http_timeout=s.http_timeout)

        def fire(spec):
            applied = apply_fault(bed, spec)
            bed.loop.call_later(spec.duration, applied.revert)
        for spec in s.faults:
            bed.loop.call_later(spec.at, fire, spec)
        bed.run(s.duration)
        for proc in processes:
            proc.stop()
        bed.network.heal()
        bed.run(s.drain)
        return bed

    unaudited_calls, _, bare = _count_calls(unaudited, {})

    tx, bare_tx = (bed.network.metrics.counter("tx_packets").value
                   for bed in (engine.bed, bare))
    assert tx == bare_tx, (
        f"audited {tx} vs unaudited {bare_tx} packets: auditing perturbed "
        f"the schedule, or the bare driver drifted from ScenarioEngine.run()")
    flows = len(engine.monitor.table.flows)
    per_packet = (audited_calls - unaudited_calls) / tx
    rare = seen["rare_captures"]
    measured = (f"{tx} packets, {flows} flows, {rare} rare captures: "
                f"{audited_calls / tx:.2f} python calls per packet audited, "
                f"{unaudited_calls / tx:.2f} unaudited, {per_packet:.2f} "
                f"capture-only; {seen['trace_records']} TraceRecords")
    # with only the monitor attached nothing keeps a record: one is built
    # at the rare capture site alone -- the four deliveries to a crashed
    # host -- and none on the packet path
    assert flows > 0, measured
    assert seen["trace_records"] == rare == 4, measured
    assert per_packet <= MAX_CAPTURE_CALLS_PER_PACKET, (
        f"{measured}; measured {MEASURED_CAPTURE_CALLS_PER_PACKET} with the "
        f"change that added this test (budget "
        f"{MAX_CAPTURE_CALLS_PER_PACKET:.2f})")
