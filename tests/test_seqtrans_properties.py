"""Property-based tests of YODA's sequence-number translation.

The entire tunneling phase rests on one constant-offset rewrite (paper
Figure 4).  These properties pin it down against the real implementation:

- relative stream positions are preserved exactly in both directions;
- client->server ACK translation inverts server->client seq translation;
- everything holds across 32-bit wraparound and HTTP/1.1 offsets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flowstate import FlowPhase, FlowState, yoda_isn
from repro.core.instance import YodaInstance, _LocalFlow
from repro.core.tcpstore import TcpStore
from repro.kvstore.client import MemcachedCluster, ReplicatingKvClient
from repro.kvstore.memcached import MemcachedServer
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import ACK, Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.segment import SEQ_MOD, seq_add, seq_diff

CLIENT = Endpoint("172.16.0.1", 40000)
VIP = Endpoint("100.0.0.1", 80)
SERVER = Endpoint("10.3.0.1", 80)


@pytest.fixture(scope="module")
def instance():
    loop = EventLoop()
    rng = SeededRng(1)
    network = Network(loop, rng)
    store_host = network.attach(Host("mc", ["10.2.0.1"]))
    cluster = MemcachedCluster([MemcachedServer(store_host, loop)])
    host = network.attach(Host("yoda", ["10.1.0.1"]))
    kv = ReplicatingKvClient(host, loop, cluster, replicas=1)
    return YodaInstance(host, loop, rng, TcpStore(kv))


def make_flow(instance, client_isn, server_isn, response_offset=0,
              request_offset=0, snat_port=2000):
    state = FlowState(
        client=CLIENT, vip=VIP, client_isn=client_isn,
        phase=FlowPhase.TUNNEL.value, server=SERVER,
        server_isn=server_isn, snat_port=snat_port,
        request_offset=request_offset, response_offset=response_offset,
    )
    return _LocalFlow(state, 0.0)


seqs = st.integers(0, SEQ_MOD - 1)
offsets = st.integers(0, 10_000_000)
lengths = st.integers(0, 1460)


@settings(max_examples=200, deadline=None)
@given(c=seqs, s=seqs, k=offsets, length=lengths)
def test_server_to_client_preserves_relative_position(instance, c, s, k, length):
    """Server response byte k must land at client stream position k."""
    flow = make_flow(instance, client_isn=c, server_isn=s)
    pkt = Packet(src=Endpoint(SERVER.ip, 80), dst=Endpoint(VIP.ip, 2000),
                 flags=ACK, seq=seq_add(s, 1 + k), ack=seq_add(c, 1),
                 payload=b"x" * length)
    out = instance._translate_to_client(flow, pkt)
    C = yoda_isn(CLIENT, VIP)
    assert seq_diff(out.seq, seq_add(C, 1)) == k
    assert out.src == VIP
    assert out.dst == CLIENT
    assert out.payload == pkt.payload
    # the server's ack of client bytes passes through untouched (ISN reuse)
    assert out.ack == pkt.ack


@settings(max_examples=200, deadline=None)
@given(c=seqs, s=seqs, k=offsets)
def test_client_ack_translation_inverts_seq_translation(instance, c, s, k):
    """If the client ACKs the translated byte k+1, the backend must see an
    ACK for its own byte k+1."""
    flow = make_flow(instance, client_isn=c, server_isn=s)
    C = yoda_isn(CLIENT, VIP)
    client_ack = seq_add(C, 1 + k)
    pkt = Packet(src=CLIENT, dst=VIP, flags=ACK, seq=seq_add(c, 1),
                 ack=client_ack)
    out = instance._translate_to_server(flow, pkt)
    assert seq_diff(out.ack, seq_add(s, 1)) == k
    assert out.dst == SERVER
    assert out.src.ip == VIP.ip
    assert out.src.port == flow.state.snat_port
    # client sequence numbers pass through untouched (ISN reuse)
    assert out.seq == pkt.seq


@settings(max_examples=200, deadline=None)
@given(c=seqs, s=seqs, k=offsets, resp_off=st.integers(0, 1_000_000))
def test_response_offset_shifts_translation(instance, c, s, k, resp_off):
    """After an HTTP/1.1 backend switch, server-2's byte k lands at client
    position resp_off + k (past everything earlier backends delivered)."""
    flow = make_flow(instance, client_isn=c, server_isn=s,
                     response_offset=resp_off)
    pkt = Packet(src=Endpoint(SERVER.ip, 80), dst=Endpoint(VIP.ip, 2000),
                 flags=ACK, seq=seq_add(s, 1 + k), ack=0)
    out = instance._translate_to_client(flow, pkt)
    C = yoda_isn(CLIENT, VIP)
    assert seq_diff(out.seq, seq_add(C, 1)) == resp_off + k


@settings(max_examples=100, deadline=None)
@given(c=seqs, s=seqs, k=st.integers(0, 100_000))
def test_roundtrip_is_identity_in_server_space(instance, c, s, k):
    """seq -> client-space -> (as an ack) -> server-space is the identity."""
    flow = make_flow(instance, client_isn=c, server_isn=s)
    server_seq = seq_add(s, 1 + k)
    data = Packet(src=Endpoint(SERVER.ip, 80), dst=Endpoint(VIP.ip, 2000),
                  flags=ACK, seq=server_seq, ack=0, payload=b"z")
    to_client = instance._translate_to_client(flow, data)
    client_ack = seq_add(to_client.seq, 1)  # client acks that byte
    ack_pkt = Packet(src=CLIENT, dst=VIP, flags=ACK, seq=0, ack=client_ack)
    back = instance._translate_to_server(flow, ack_pkt)
    assert back.ack == seq_add(server_seq, 1)


@settings(max_examples=300, deadline=None)
@given(y=seqs, s=seqs, resp_off=st.integers(0, SEQ_MOD - 1), x=seqs,
       length=lengths, meta=st.sampled_from([{}, {"obs_ctx": (1, 2)}]))
def test_one_mask_translation_is_seq_add_of_delta(instance, y, s, resp_off, x,
                                                  length, meta):
    """The translate functions fold ``_delta``'s three terms under one mask;
    that is ``seq_add(x, +-_delta(state))`` for every ISN pair and offset in
    the 32-bit space, and the meta side-channel is copied, never shared."""
    flow = make_flow(instance, client_isn=0, server_isn=s,
                     response_offset=resp_off)
    flow.state._yoda_isn = y  # any 32-bit value, not just the hashed one
    delta = instance._delta(flow.state)
    pkt = Packet(src=Endpoint(SERVER.ip, 80), dst=Endpoint(VIP.ip, 2000),
                 flags=ACK, seq=x, ack=x, payload=b"x" * length,
                 meta=dict(meta))
    to_client = instance._translate_to_client(flow, pkt)
    assert to_client.seq == seq_add(x, delta)
    assert to_client.ack == x
    to_server = instance._translate_to_server(flow, pkt)
    assert to_server.ack == seq_add(x, -delta)
    assert to_server.seq == x
    for out in (to_client, to_server):
        assert out.meta == meta and out.meta is not pkt.meta
        assert out.payload == pkt.payload and out.flags == pkt.flags
    # without the ACK flag there is no ack field to translate
    bare = Packet(src=CLIENT, dst=VIP, flags=0, seq=x, ack=x)
    assert instance._translate_to_server(flow, bare).ack == 0
