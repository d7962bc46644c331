"""TCP corner cases: reordering, duplicates, simultaneous close, recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.config import TcpConfig
from repro.tcp.endpoint import ConnectionHandler, TcpStack


class Collector(ConnectionHandler):
    def __init__(self):
        self.data = bytearray()
        self.events = []

    def on_connected(self, conn):
        self.events.append("connected")

    def on_data(self, conn, data):
        self.data.extend(data)

    def on_remote_close(self, conn):
        self.events.append("remote_close")

    def on_closed(self, conn):
        self.events.append("closed")

    def on_error(self, conn, reason):
        self.events.append(f"error:{reason}")


def make_pair(loss=0.0, config=None, latency=0.001):
    loop = EventLoop()
    net = Network(loop, SeededRng(13), default_latency=FixedLatency(latency))
    if loss:
        net.set_loss_rate(loss)
    a = net.attach(Host("a", ["10.0.0.1"]))
    b = net.attach(Host("b", ["10.0.0.2"]))
    return loop, net, TcpStack(a, loop, config), TcpStack(b, loop, config)


class TestDuplicatesAndReassembly:
    def test_duplicate_data_segments_delivered_once(self):
        """Inject duplicates at the fabric by replaying client payloads."""
        loop, net, cs, ss = make_pair()
        server = Collector()
        ss.listen(80, lambda c: server)

        class Dup(ConnectionHandler):
            def on_connected(self, conn):
                conn.send(b"hello")
                # force a gratuitous retransmission of the same bytes
                loop.call_later(0.01, conn._retransmit_oldest)

        cs.connect(Endpoint("10.0.0.2", 80), Dup())
        loop.run(until=5)
        assert bytes(server.data) == b"hello"

    def test_out_of_order_segments_reassembled(self):
        """Deliver a crafted out-of-order segment directly; the receiver
        must hold it until the gap fills."""
        from repro.net.packet import ACK, Packet

        loop, net, cs, ss = make_pair()
        server = Collector()
        ss.listen(80, lambda c: server)
        sender = Collector()
        conn = cs.connect(Endpoint("10.0.0.2", 80), sender)
        loop.run(until=1)
        assert conn.established
        from repro.tcp.segment import seq_add

        base = conn._snd_nxt
        host_b = net.host("b")
        # segment 2 arrives first
        host_b.deliver(Packet(src=conn.local, dst=conn.remote, flags=ACK,
                              seq=seq_add(base, 5), ack=conn._rcv_nxt,
                              payload=b"WORLD"))
        loop.run_for(0.01)
        assert bytes(server.data) == b""  # gap: nothing delivered yet
        host_b.deliver(Packet(src=conn.local, dst=conn.remote, flags=ACK,
                              seq=base, ack=conn._rcv_nxt, payload=b"HELLO"))
        loop.run_for(0.01)
        assert bytes(server.data) == b"HELLOWORLD"

    def test_overlapping_segment_trimmed(self):
        from repro.net.packet import ACK, Packet
        from repro.tcp.segment import seq_add

        loop, net, cs, ss = make_pair()
        server = Collector()
        ss.listen(80, lambda c: server)
        conn = cs.connect(Endpoint("10.0.0.2", 80), Collector())
        loop.run(until=1)
        base = conn._snd_nxt
        host_b = net.host("b")
        host_b.deliver(Packet(src=conn.local, dst=conn.remote, flags=ACK,
                              seq=base, ack=conn._rcv_nxt, payload=b"ABCDE"))
        loop.run_for(0.01)
        # overlaps the first 3 bytes, brings 2 new ones
        host_b.deliver(Packet(src=conn.local, dst=conn.remote, flags=ACK,
                              seq=seq_add(base, 2), ack=conn._rcv_nxt,
                              payload=b"CDEFG"))
        loop.run_for(0.01)
        assert bytes(server.data) == b"ABCDEFG"


class TestClose:
    def test_simultaneous_close(self):
        loop, net, cs, ss = make_pair()
        server_handler = Collector()
        ss.listen(80, lambda c: server_handler)
        client_handler = Collector()
        conn = cs.connect(Endpoint("10.0.0.2", 80), client_handler)
        loop.run(until=1)
        server_conn = next(iter(ss.connections().values()))
        # both sides close in the same instant
        conn.close()
        server_conn.close()
        loop.run(until=30)
        assert not cs.connections()
        assert not ss.connections()

    def test_half_close_server_keeps_sending(self):
        """Client closes its direction; server can still deliver data."""
        loop, net, cs, ss = make_pair()
        server_side = {}

        class ServerApp(Collector):
            def on_remote_close(self, conn):
                super().on_remote_close(conn)
                conn.send(b"late data")
                conn.close()

        ss.listen(80, lambda c: ServerApp())
        client_handler = Collector()
        conn = cs.connect(Endpoint("10.0.0.2", 80), client_handler)
        loop.run(until=1)
        conn.close()  # FIN, but client can still receive
        loop.run(until=10)
        assert bytes(client_handler.data) == b"late data"

    def test_fin_retransmitted_when_lost(self):
        config = TcpConfig(data_rto_initial=0.1)
        loop, net, cs, ss = make_pair(config=config)
        server = Collector()
        ss.listen(80, lambda c: server)
        conn = cs.connect(Endpoint("10.0.0.2", 80), Collector())
        loop.run(until=1)
        net.set_loss_rate(0.9)
        conn.close()
        loop.run(until=3)
        net.set_loss_rate(0.0)
        loop.run(until=40)
        assert "remote_close" in server.events


class TestWindowAndRecovery:
    @pytest.mark.parametrize("latency", [0.0005, 0.02])
    def test_throughput_ramps_with_slow_start(self, latency):
        loop, net, cs, ss = make_pair(latency=latency)
        server = Collector()
        ss.listen(80, lambda c: server)
        blob = b"B" * 400_000

        class Send(ConnectionHandler):
            def on_connected(self, conn):
                conn.send(blob)
                conn.close()

        cs.connect(Endpoint("10.0.0.2", 80), Send())
        loop.run(until=60)
        assert bytes(server.data) == blob

    def test_newreno_recovers_burst_loss_quickly(self):
        """A whole-window loss burst recovers in ~one RTT per hole, far
        faster than one RTO per hole."""
        loop, net, cs, ss = make_pair(latency=0.01)

        class ClosingServer(Collector):
            def on_remote_close(self, conn):
                super().on_remote_close(conn)
                conn.close()

        server = ClosingServer()
        ss.listen(80, lambda c: server)
        blob = b"C" * 300_000
        done = {}

        class Send(ConnectionHandler):
            def on_connected(self, conn):
                conn.send(blob)
                conn.close()

            def on_closed(self, conn):
                done["t"] = loop.now()

        cs.connect(Endpoint("10.0.0.2", 80), Send())
        loop.call_later(0.08, lambda: net.set_loss_rate(0.5))
        loop.call_later(0.23, lambda: net.set_loss_rate(0.0))
        loop.run(until=120)
        assert bytes(server.data) == blob
        # with one-RTO-per-hole this would take tens of seconds
        assert done.get("t", 999) < 30


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=12),
       loss_pct=st.integers(0, 15))
def test_stream_integrity_under_any_chunking_and_loss(sizes, loss_pct):
    """Whatever the app's write sizes and the network's loss rate, the
    byte stream arrives intact and in order."""
    loop, net, cs, ss = make_pair(loss=loss_pct / 100.0)
    server = Collector()
    ss.listen(80, lambda c: server)
    chunks = [bytes([i % 256]) * size for i, size in enumerate(sizes)]

    class Send(ConnectionHandler):
        def on_connected(self, conn):
            for chunk in chunks:
                conn.send(chunk)
            conn.close()

    cs.connect(Endpoint("10.0.0.2", 80), Send())
    loop.run(until=600)
    assert bytes(server.data) == b"".join(chunks)
