"""The run digest is rendered where the packet is; this holds it to its
definition.

``Network.transmit`` and ``Network._deliver`` append the digest line of a
capture straight from the packet -- no ``TraceRecord``, no call into
``sim.tracing`` -- and hash the pending lines a block at a time.  The
definition of that line is still ``engine_trace_line`` over the record a
``scope="all"`` tap is handed for the same capture, so every test here
attaches such a tap to the same run and compares the network's digest with
the line-by-line hash of what the tap saw: a byte of drift at either
capture site, a line lost or reordered at a block boundary, or an rx line
rendered from tx-time state fails it.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.errors import NetworkError
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import DIGEST_BLOCK_LINES, Network
from repro.net.packet import ACK, PSH, Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.sim.tracing import PacketTrace, engine_trace_line

A = Endpoint("10.0.0.1", 40000)
B = Endpoint("10.0.0.2", 80)
NOWHERE = Endpoint("10.9.9.9", 80)  # no host owns it: dropped on the wire


def unblocked_digest(trace) -> str:
    """The definition: sha256("".join(engine_trace_line(r) for r in trace)),
    one ``update`` per record, in capture order."""
    sha = hashlib.sha256()
    for rec in trace:
        sha.update(engine_trace_line(rec).encode())
    return sha.hexdigest()


def small_world():
    loop = EventLoop()
    network = Network(loop, SeededRng(1))
    a = network.attach(Host("a", [A.ip]))
    b = network.attach(Host("b", [B.ip]))
    network.start_digest()
    trace = network.add_trace(PacketTrace())
    return loop, network, a, b, trace


# -- (a) the definition, on runs that exercise every capture kind -----------
# shrunk as the golden corpus shrinks them; the fault schedules are the
# built-ins' own
DEFINITION_RUNS = {
    "asym-loss": dict(clients=2, object_count=3, duration=8.0, drain=8.0),
    "double-crash": dict(clients=2, object_count=3, duration=6.0, drain=6.0),
}


@pytest.fixture(scope="module")
def definition_runs():
    """name -> (the run's digest, the definition's, the capture kinds)."""
    out = {}
    for name, shrink in DEFINITION_RUNS.items():
        scenario = dataclasses.replace(get_scenario(name), **shrink)
        trace = PacketTrace()
        engine = ScenarioEngine(scenario, lb="yoda", seed=2016, taps=[trace])
        outcome = engine.run()
        assert len(trace) > 10_000
        kinds = {(r.direction, r.dropped) for r in trace}
        if engine.bed.network.metrics.counter("duplicated_packets").value:
            kinds.add("duplicate")
        out[name] = (outcome.trace_digest, unblocked_digest(trace), kinds)
    return out


@pytest.mark.parametrize("name", sorted(DEFINITION_RUNS))
def test_digest_is_the_engine_line_of_every_record(definition_runs, name):
    digest, definition, _ = definition_runs[name]
    assert digest == definition


def test_the_definition_runs_cover_every_capture_kind(definition_runs):
    """tx, rx, tx-drop (path loss), rx-drop (delivery to a failed host) and
    the second tx line of a duplicated packet."""
    kinds = set().union(*(kinds for _, _, kinds in definition_runs.values()))
    assert kinds == {("tx", False), ("rx", False), ("tx", True),
                     ("rx", True), "duplicate"}


# -- (b) block boundaries -----------------------------------------------------
BLOCK = DIGEST_BLOCK_LINES
capture_counts = st.sampled_from(
    [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])


@settings(max_examples=30, deadline=None)
@given(captures=capture_counts, first_read=st.floats(0.0, 1.0),
       second_read=st.floats(0.0, 1.0))
def test_blocked_hash_equals_the_unblocked_one(captures, first_read,
                                               second_read):
    loop, network, a, _, trace = small_world()
    # a delivered packet is two captures (tx, rx), a no-route one is one
    sends = [(A, B)] * (captures // 2) + [(A, NOWHERE)] * (captures % 2)
    for i, (src, dst) in enumerate(sends):
        loop.call_at(i * 0.001, network.transmit, a,
                     Packet(src=src, dst=dst, flags=ACK, seq=i))
    end = len(sends) * 0.001
    for at in sorted((first_read * end, second_read * end)):
        loop.run(until=at)
        mid = network.digest()
        assert mid == unblocked_digest(trace)
        assert network.digest() == mid  # reading it does not perturb it
    loop.run()
    assert len(trace) == captures
    assert network.digest() == unblocked_digest(trace)
    assert len(network._digest_lines) < BLOCK


def test_pending_lines_never_exceed_a_block():
    """A run of drops goes through the rare capture site: it flushes too."""
    loop, network, a, _, _ = small_world()
    for i in range(3 * BLOCK):
        network.transmit(a, Packet(src=A, dst=NOWHERE, seq=i))
        assert len(network._digest_lines) < BLOCK


def test_digest_needs_start_digest():
    network = Network(EventLoop(), SeededRng(1))
    with pytest.raises(NetworkError, match="no digest"):
        network.digest()


# -- (c) mutation in flight -----------------------------------------------------
def test_rx_line_renders_the_packet_as_it_is_at_delivery():
    """A duplicated packet is one object delivered twice; the receiver of
    the first delivery rewrites it in place (as the LB tiers do), so the
    second rx line must show the rewritten packet, not the one sent."""
    loop, network, a, b, trace = small_world()
    network.set_duplicate_rate(1.0, "a", "b")

    def rewrite(packet):
        packet.seq, packet.flags, packet.payload = 777, ACK | PSH, b"rewritten"

    b.set_handler(rewrite)
    network.transmit(a, Packet(src=A, dst=B, flags=ACK, seq=5, payload=b"x"))
    loop.run()
    latency = 0.00025
    assert [engine_trace_line(r) for r in trace] == [
        f"0.000000000|wire|tx|{A}|{B}|.|5|0|1|False",
        f"0.000000000|wire|tx|{A}|{B}|.|5|0|1|False",  # the duplicate
        f"{latency:.9f}|b|rx|{A}|{B}|.|5|0|1|False",
        f"{latency:.9f}|b|rx|{A}|{B}|P.|777|0|9|False",
    ]
    assert network.digest() == unblocked_digest(trace)
