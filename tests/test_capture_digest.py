"""The run digest captures each wire transmission once; this holds it to its
definition.

``Network.transmit`` appends one capture per wire transmission -- send and
delivery instant, destination host, ``src``/``dst`` text, flags, seq, ack,
payload length -- and the rare sites (a drop on the wire, a drop at a
failed host, a duplicate's second delivery, a delivery re-routed in flight)
append a tagged capture of the same shape through ``Network._record``.
Every ``DIGEST_BLOCK_CAPTURES`` captures are packed column by column and
hashed.  Every test here rebuilds the captures from a ``scope="all"``
``PacketTrace`` of the same run -- a transmission's delivery instant is the
time of its rx record, matched FIFO per path -- and packs them one value at
a time with ``struct``: a field dropped or reordered, a capture lost at a
block boundary, or a block boundary moved by a mid-run read fails it.  The
one thing records cannot say is which of two equal wire-tx records at one
instant is a duplicate's second delivery; a ``wire-packet`` tap beside the
trace says which packet object each one carried.

The design rests on one fact, pinned last: no code reassigns a packet's
header after the packet is built, so its delivery shows what its
transmission did.
"""

import ast
import dataclasses
import hashlib
import struct
from collections import defaultdict, deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.errors import NetworkError
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import (
    CAPTURE_DUPLICATE,
    CAPTURE_HOST_DROP,
    CAPTURE_REROUTE,
    CAPTURE_WIRE_DROP,
    DIGEST_BLOCK_CAPTURES,
    Network,
)
from repro.net.packet import _FLAG_STR, ACK, Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.sim.tracing import PacketTrace

A = Endpoint("10.0.0.1", 40000)
B = Endpoint("10.0.0.2", 80)
NOWHERE = Endpoint("10.9.9.9", 80)  # no host owns it: dropped on the wire
BLOCK = DIGEST_BLOCK_CAPTURES
FLAG_BITS = {text: mask for mask, text in enumerate(_FLAG_STR)}
TAG_MASK = ~0xFF


class WirePackets:
    """The id of the packet each wire-tx record carried, in record order."""

    scope = "wire-packet"

    def __init__(self):
        self.ids = []

    def record(self, now, packet, dropped):
        self.ids.append(packet.packet_id)


def reference_captures(trace, wire, owner, upto=None):
    """The captures of the first ``upto`` records of a ``scope="all"``
    trace, rebuilt from the records (and, for duplicates, ``wire``).

    ``owner(time, ip)`` names the host that owned ``ip`` at ``time``.  A
    wire-tx record that carried the same packet as the wire-tx record just
    before it is a duplicate's second delivery.  Deliveries are matched to
    transmissions FIFO per ``(src, dst, flags, seq, ack, length)``, over the
    whole trace: a transmission still in flight at record ``upto`` is
    delivered after it."""
    records = trace.records
    upto = len(records) if upto is None else upto
    captures = []
    in_flight = defaultdict(deque)
    previous = None
    wire_ids = iter(wire.ids)
    previous_id = None
    for i, rec in enumerate(records):
        key = (rec.src, rec.dst, rec.flags, rec.seq, rec.ack, rec.payload_len)
        fields = [rec.src, rec.dst, FLAG_BITS[rec.flags], rec.seq, rec.ack,
                  rec.payload_len]
        if rec.direction == "tx":
            packet_id = next(wire_ids)
            if i >= upto:
                continue
            if rec.dropped:
                captures.append([rec.time, rec.time, "wire", *fields])
                captures[-1][5] |= CAPTURE_WIRE_DROP
            else:
                cap = [rec.time, None, owner(rec.time, rec.dst.split(":")[0]),
                       *fields]
                if (previous is not None and previous.direction == "tx"
                        and packet_id == previous_id):
                    assert previous == rec
                    cap[5] |= CAPTURE_DUPLICATE
                captures.append(cap)
                in_flight[key].append(cap)
            previous, previous_id = rec, packet_id
            continue
        # nothing is in flight for a delivery of a packet sent before the
        # trace started
        sent = in_flight[key].popleft() if in_flight[key] else None
        if sent is not None:
            sent[1] = rec.time
        previous = rec
        if i >= upto:
            continue
        if sent is not None and rec.point != sent[2]:
            captures.append([rec.time, rec.time, rec.point, *fields])
            captures[-1][5] |= CAPTURE_REROUTE
        if rec.dropped:
            captures.append([rec.time, rec.time, rec.point, *fields])
            captures[-1][5] |= CAPTURE_HOST_DROP
    assert all(cap[1] is not None for cap in captures), "undelivered capture"
    return captures


def packed_digest(captures) -> str:
    """The definition, one value at a time: per block of ``BLOCK``
    captures, the send then delivery instants as ``<d``, the host, src and
    dst columns NUL-joined as UTF-8, then the flags, seq, ack and length
    columns as ``<q``."""
    sha = hashlib.sha256()
    for start in range(0, len(captures), BLOCK):
        block = captures[start:start + BLOCK]
        for col in (0, 1):
            for cap in block:
                sha.update(struct.pack("<d", cap[col]))
        sha.update("\0".join(cap[col] for col in (2, 3, 4)
                             for cap in block).encode())
        for col in (5, 6, 7, 8):
            for cap in block:
                sha.update(struct.pack("<q", cap[col]))
    return sha.hexdigest()


def small_world(*names):
    """A network with host "a" (owns A) and one host per further name, the
    first owning B, the others 10.0.1.x; the digest and the two taps start
    together."""
    loop = EventLoop()
    network = Network(loop, SeededRng(1))
    hosts = [network.attach(Host("a", [A.ip]))]
    for i, name in enumerate(names or ("b",)):
        ip = B.ip if i == 0 else f"10.0.1.{i}"
        hosts.append(network.attach(Host(name, [ip])))
    network.start_digest()
    taps = (network.add_trace(PacketTrace()), network.add_trace(WirePackets()))
    return loop, network, hosts, taps


def static_owner(network):
    owners = {ip: host.name for host in network.hosts() for ip in host.ips}
    return lambda time, ip: owners.get(ip)


def tags(captures):
    return {cap[5] & TAG_MASK for cap in captures}


# -- (a) the definition, on runs that exercise every capture kind -----------
# shrunk as the golden corpus shrinks them; the fault schedules are the
# built-ins' own
DEFINITION_RUNS = {
    "asym-loss": dict(clients=2, object_count=3, duration=8.0, drain=8.0),
    "double-crash": dict(clients=2, object_count=3, duration=6.0, drain=6.0),
}


@pytest.fixture(scope="module")
def definition_runs():
    """name -> (the run's digest, the definition's, the reference captures)."""
    out = {}
    for name, shrink in DEFINITION_RUNS.items():
        scenario = dataclasses.replace(get_scenario(name), **shrink)
        taps = (PacketTrace(), WirePackets())
        engine = ScenarioEngine(scenario, lb="yoda", seed=2016)
        for tap in taps:
            engine.build().network.add_trace(tap)
        outcome = engine.run()
        network, loop = engine.bed.network, engine.bed.loop
        upto = len(taps[0])
        duplicated = network.metrics.counter("duplicated_packets").value
        # deliver what was in flight when the digest was read
        loop.run(until=loop.now() + 2.0)
        captures = reference_captures(*taps, static_owner(network), upto)
        assert len(captures) > 5_000
        assert sum(1 for cap in captures
                   if cap[5] & TAG_MASK == CAPTURE_DUPLICATE) == duplicated
        out[name] = (outcome.trace_digest, packed_digest(captures), captures)
    return out


@pytest.mark.parametrize("name", sorted(DEFINITION_RUNS))
def test_digest_is_the_packed_capture_of_every_transmission(definition_runs,
                                                            name):
    digest, definition, _ = definition_runs[name]
    assert digest == definition


def test_the_definition_runs_cover_every_capture_kind(definition_runs):
    """tx, tx-drop (path loss), rx-drop (delivery to a failed host) and a
    duplicate's second delivery; a re-route needs an address to move
    (``test_a_delivery_rerouted_in_flight_is_captured``)."""
    seen = set().union(*(tags(caps) for _, _, caps in definition_runs.values()))
    assert seen == {0, CAPTURE_WIRE_DROP, CAPTURE_HOST_DROP, CAPTURE_DUPLICATE}


def test_a_delivery_rerouted_in_flight_is_captured():
    """``claim_ip`` moves B while one packet to it is in flight: that
    delivery is captured at the new owner, after the transmission and
    before the next; a packet sent after the move is a plain transmission."""
    loop, network, (a, b, c), taps = small_world("b", "c")
    moved_at = 0.0001
    loop.call_at(0.0, network.transmit, a, Packet(src=A, dst=B, flags=ACK))
    loop.call_at(moved_at, network.claim_ip, c, B.ip)
    loop.call_at(0.001, network.transmit, a,
                 Packet(src=A, dst=B, flags=ACK, seq=1))
    loop.run()
    captures = reference_captures(
        *taps, lambda time, ip: "b" if time < moved_at else "c")
    assert [(cap[2], cap[5] & TAG_MASK) for cap in captures] == [
        ("b", 0), ("c", CAPTURE_REROUTE), ("c", 0)]
    assert network.digest() == packed_digest(captures)


def test_a_duplicate_and_a_rerouted_drop_are_captured_in_order():
    """Every packet on the path is duplicated, and the second is re-routed
    to a failed host: each rare capture lands where its event happened."""
    loop, network, (a, b, c), taps = small_world("b", "c")
    network.set_duplicate_rate(1.0, "a", "b")
    c.fail()
    loop.call_at(0.0, network.transmit, a, Packet(src=A, dst=B, flags=ACK))
    loop.call_at(0.001, network.transmit, a,
                 Packet(src=A, dst=B, flags=ACK, seq=1, payload=b"xy"))
    loop.call_at(0.0011, network.claim_ip, c, B.ip)
    loop.run()
    captures = reference_captures(
        *taps, lambda time, ip: "b" if time < 0.0011 else "c")
    assert [(cap[2], cap[5] & TAG_MASK) for cap in captures] == [
        ("b", 0), ("b", CAPTURE_DUPLICATE),
        ("b", 0), ("b", CAPTURE_DUPLICATE),
        ("c", CAPTURE_REROUTE), ("c", CAPTURE_HOST_DROP),
        ("c", CAPTURE_REROUTE), ("c", CAPTURE_HOST_DROP)]
    assert network.digest() == packed_digest(captures)


# -- (b) block boundaries -----------------------------------------------------
capture_counts = st.sampled_from(
    [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])


@settings(max_examples=30, deadline=None)
@given(captures=capture_counts, first_read=st.floats(0.0, 1.0),
       second_read=st.floats(0.0, 1.0))
def test_blocked_hash_equals_the_unblocked_one(captures, first_read,
                                               second_read):
    loop, network, (a, _), taps = small_world()
    # one capture per send: a delivered packet is captured at transmission,
    # every third one is dropped on the wire
    for i in range(captures):
        dst = NOWHERE if i % 3 == 2 else B
        loop.call_at(i * 0.001, network.transmit, a,
                     Packet(src=A, dst=dst, flags=ACK, seq=i))
    end = captures * 0.001
    reads = []
    for at in sorted((first_read * end, second_read * end)):
        loop.run(until=at)
        mid = network.digest()
        assert network.digest() == mid  # reading it does not perturb it
        reads.append((mid, len(taps[0])))
        assert len(network._captures) < BLOCK
    loop.run()
    owner = static_owner(network)
    for mid, upto in reads:
        assert mid == packed_digest(reference_captures(*taps, owner, upto))
    final = reference_captures(*taps, owner)
    assert len(final) == captures
    assert network.digest() == packed_digest(final)
    assert len(network._captures) == captures % BLOCK


def test_pending_lines_never_exceed_a_block():
    """A run of drops goes through the rare capture site: it flushes too."""
    loop, network, (a, _), _ = small_world()
    for i in range(3 * BLOCK):
        network.transmit(a, Packet(src=A, dst=NOWHERE, seq=i))
        assert len(network._captures) < BLOCK


def test_digest_needs_start_digest():
    network = Network(EventLoop(), SeededRng(1))
    with pytest.raises(NetworkError, match="no digest"):
        network.digest()


# -- (c) the fact one capture per transmission rests on ----------------------
HEADER_FIELDS = {"src", "dst", "flags", "seq", "ack", "payload"}
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _header_writes(tree):
    """(line, target text, enclosing class) of every assignment (plain,
    augmented, annotated, loop or ``with`` target), deletion or ``setattr``
    of an attribute named like a packet header field."""

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        elif isinstance(node, ast.Attribute) and node.attr in HEADER_FIELDS:
            yield node

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
                continue
            found = []
            if isinstance(child, ast.Assign):
                found = [t for tgt in child.targets for t in targets(tgt)]
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign, ast.For,
                                    ast.AsyncFor, ast.comprehension)):
                found = list(targets(child.target))
            elif isinstance(child, ast.withitem) and child.optional_vars:
                found = list(targets(child.optional_vars))
            elif isinstance(child, ast.Delete):
                found = [t for tgt in child.targets for t in targets(tgt)]
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, (ast.Name, ast.Attribute))
                  and getattr(child.func, "id", getattr(child.func, "attr", ""))
                  in ("setattr", "__setattr__")
                  and any(isinstance(arg, ast.Constant)
                          and arg.value in HEADER_FIELDS
                          for arg in child.args)):
                yield child.lineno, ast.unparse(child), cls
            for attr in found:
                yield child.lineno, ast.unparse(attr), cls
            yield from walk(child, cls)

    yield from walk(tree, None)


def _own_attribute(target, cls):
    """``self.<field>`` inside a class that is not a Packet: the object's
    own attribute (``Event.seq``), not a packet header."""
    return (cls is not None and target.startswith("self.")
            and not any(ast.unparse(base).endswith("Packet")
                        for base in cls.bases))


def test_no_code_reassigns_a_packet_header_field():
    """A packet's src, dst, flags, seq, ack and payload are set when it is
    built and never again (translation builds a new packet), so the one
    capture at transmission says what its delivery carries.  Anything under
    src/repro that assigns one of those fields outside Packet's own methods
    fails here; a retained packet must be copied, not rewritten."""
    offenders, own = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, target, cls in _header_writes(tree):
            if cls is not None and cls.name == "Packet":
                continue
            site = f"{path.relative_to(SRC.parent)}:{line}: {target}"
            (own if _own_attribute(target, cls) else offenders).append(site)
    assert not offenders, (
        "packet header fields reassigned after construction: "
        + "; ".join(offenders))
    # the walk is not vacuous: it sees a same-named attribute that is an
    # object's own (the event loop's tie-break seq)
    assert any(site.startswith("repro/sim/events.py:") for site in own), own
