"""The lean capture path renders exactly what the old one did.

``Network._record`` used to build each ``TraceRecord`` by keyword from
freshly formatted strings (``str(endpoint)``, ``flags_to_str``,
``Packet.summary()``).  It now reads cached endpoint text and a flag-string
table, and ``summary`` is derived on demand.  The goldens' canonical
``digest`` is folded over these renderings, so they are pinned here against
reference renderings computed the old way, straight from the ``Packet`` --
for every flag mask, dropped or not, at the 2**32 seq wrap, through the
network site that builds each kind of record.
"""

from hypothesis import given, settings, strategies as st

from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import CAPTURE_DUPLICATE, CAPTURE_WIRE_DROP, Network
from repro.net.packet import _FLAG_STR, Packet, flags_to_str
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.sim.tracing import PacketTrace
from tests.trace_tools import canonical_trace_line

octet = st.integers(0, 255)
endpoints = st.builds(
    lambda a, b, c, d, port: Endpoint(f"{a}.{b}.{c}.{d}", port),
    octet, octet, octet, octet, st.integers(0, 65535))
seqs = st.one_of(st.integers(0, 2**32 - 1),
                 st.integers(2**32 - 70_000, 2**32 - 1),
                 st.integers(0, 70_000))
payloads = st.one_of(st.just(b""), st.binary(min_size=1, max_size=1500))
times = st.floats(0.0, 1e5, allow_nan=False)
points = st.sampled_from(["wire", "yoda-0", "server-3", "mc-1"])


def reference_renderings(pkt, time, point, direction, dropped):
    """(str, summary, canonical line), rendered the original way."""
    src = f"{pkt.src.ip}:{pkt.src.port}"
    dst = f"{pkt.dst.ip}:{pkt.dst.port}"
    flags = flags_to_str(pkt.flags)
    n = len(pkt.payload)
    summary = f"{src} > {dst}: {flags} seq={pkt.seq} ack={pkt.ack} len={n}"
    drop = " DROPPED" if dropped else ""
    return (
        f"{time:10.6f} {point} {direction} {summary}{drop}",
        summary,
        f"{time:.9f} {point} {direction} {src}>{dst} {flags} "
        f"seq={pkt.seq} ack={pkt.ack} len={n}{drop}",
    )


def test_flag_table_matches_flags_to_str():
    for flags in range(32):
        assert _FLAG_STR[flags] == flags_to_str(flags)
    for flags in range(32, 256):  # bits above the five are not rendered
        assert _FLAG_STR[flags & 0x1F] == flags_to_str(flags)


@settings(max_examples=60, deadline=None)
@given(src=endpoints, dst=endpoints, seq=seqs, ack=seqs, payload=payloads,
       time=times, point=points)
def test_captured_record_renders_as_the_packet_did(src, dst, seq, ack,
                                                   payload, time, point):
    loop = EventLoop()
    network = Network(loop, SeededRng(1))
    trace = network.add_trace(PacketTrace())
    direction = "tx" if point == "wire" else "rx"
    # the capture point's host, up and failed (never attached: _deliver
    # falls back to the host it was handed when no route names the dst)
    up, failed = Host(point, ["10.255.255.1"]), Host(point, ["10.255.255.2"])
    failed.fail()
    cases = [(flags, dropped) for flags in range(32)
             for dropped in (False, True)]
    packets = [Packet(src=src, dst=dst, flags=flags, seq=seq, ack=ack,
                      payload=payload) for flags, _ in cases]
    for pkt, (_, dropped) in zip(packets, cases):
        if point == "wire":  # a drop, or a duplicate's second delivery
            tag = CAPTURE_WIRE_DROP if dropped else CAPTURE_DUPLICATE
            loop.call_at(time, network._record, pkt, tag, "wire")
        else:  # a delivery, or a drop at a failed host
            loop.call_at(time, network._deliver, failed if dropped else up,
                         pkt)
    loop.run()
    assert len(trace) == len(cases)
    for rec, pkt, (_, dropped) in zip(trace, packets, cases):
        assert rec.time == time and rec.payload_len == len(payload)
        assert (str(rec), rec.summary,
                canonical_trace_line(rec)) == reference_renderings(
                    pkt, time, point, direction, dropped)
        assert rec.summary == pkt.summary()
