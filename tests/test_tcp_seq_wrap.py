"""The TCP endpoint across the 2**32 sequence wrap.

Where a connection's ISN falls in sequence space must not show anywhere
but in the absolute numbers on the wire.  Two stacks move 200 KB and close
over a jittered link with the ISN of both sides pinned (``TcpConfig.isn_fn``)
so that the wrap lands right after the SYN, inside the first segment, in
mid-transfer, on the last byte before the FIN, and -- for the signed
comparisons -- so that the stream crosses the 2**31 midpoint.  Each run must
equal the run with a mid-space ISN record for record once sequence numbers
are taken relative to the ISN: same packets at the same instants, same
drops, same retransmissions, same close events.
"""

import pytest

from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import JitterLatency
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.config import TcpConfig
from repro.tcp.endpoint import ConnectionHandler, TcpStack
from repro.tcp.segment import SEQ_HALF, SEQ_MASK, SEQ_MOD

PAYLOAD = bytes(i * 31 % 251 for i in range(204_800))  # 200 KB, no period of 2**k
MID_SPACE_ISN = 0x12345678
WRAP_ISNS = [SEQ_MOD - 1, SEQ_MOD - 1460, SEQ_MOD - 70_000,
             SEQ_MOD - len(PAYLOAD), (1 << 31) - 5]


class _WireTap:
    """Every transmission, with its sequence numbers relative to the ISN
    (both sides share it, so it is also the peer's)."""

    scope = "wire-tx"

    def __init__(self, isn):
        self.isn = isn
        self.records = []

    def record(self, rec):
        ack = (rec.ack - self.isn) & SEQ_MASK if "." in rec.flags else 0
        self.records.append((rec.time.hex(), rec.src, rec.flags,
                             (rec.seq - self.isn) & SEQ_MASK, ack,
                             rec.payload_len, rec.dropped))


class _Sender(ConnectionHandler):
    def __init__(self, events):
        self.events = events

    def on_connected(self, conn):
        conn.send(PAYLOAD)
        conn.close()

    def on_closed(self, conn):
        self.events.append("client closed")

    def on_error(self, conn, reason):
        self.events.append(f"client error:{reason}")


class _Receiver(ConnectionHandler):
    def __init__(self, events):
        self.events = events
        self.data = bytearray()

    def on_data(self, conn, data):
        self.data.extend(data)

    def on_remote_close(self, conn):
        self.events.append("server saw FIN")
        conn.close()

    def on_closed(self, conn):
        self.events.append("server closed")

    def on_error(self, conn, reason):
        self.events.append(f"server error:{reason}")


def _transfer(isn, loss):
    loop = EventLoop()
    net = Network(loop, SeededRng(2016),
                  default_latency=JitterLatency(0.002, 0.001))
    if loss:
        net.set_loss_rate(loss)
    tap = net.add_trace(_WireTap(isn))
    tx_packets = net.metrics.counter("tx_packets")
    config = TcpConfig(isn_fn=lambda key: isn)
    client = TcpStack(net.attach(Host("a", ["10.0.0.1"])), loop, config)
    server = TcpStack(net.attach(Host("b", ["10.0.0.2"])), loop, config)
    events = []
    receiver = _Receiver(events)
    server.listen(80, lambda conn: receiver)
    conn = client.connect(Endpoint("10.0.0.2", 80), _Sender(events))
    assert conn.iss == isn
    loop.run(until=60.0)
    return {
        "data": bytes(receiver.data),
        "events": events,
        "tx_packets": tx_packets.value,
        "retransmits": conn.retransmit_count,
        "bytes_sent": conn.bytes_sent,
        "trace": tap.records,
    }


@pytest.fixture(scope="module", params=[0.0, 0.05], ids=["lossless", "5% loss"])
def reference(request):
    loss = request.param
    run = _transfer(MID_SPACE_ISN, loss)
    assert run["data"] == PAYLOAD
    assert sorted(run["events"]) == ["client closed", "server closed",
                                     "server saw FIN"]
    # the lossy leg must actually exercise loss recovery, the clean one not
    assert (run["retransmits"] > 0) == bool(loss)
    return loss, run


@pytest.mark.parametrize("isn", WRAP_ISNS, ids=[
    "2^32-1", "2^32-1460", "2^32-70000", "2^32-204800", "2^31-5"])
def test_transfer_is_the_same_wherever_the_isn_falls(reference, isn):
    loss, ref = reference
    run = _transfer(isn, loss)
    assert run["data"] == PAYLOAD, "bytes were lost, duplicated or reordered"
    assert run["events"] == ref["events"]
    assert run["tx_packets"] == ref["tx_packets"]
    assert run["retransmits"] == ref["retransmits"]
    assert run["bytes_sent"] == ref["bytes_sent"]
    for i, (got, want) in enumerate(zip(run["trace"], ref["trace"])):
        assert got == want, f"record #{i} differs from the mid-space run"
    assert len(run["trace"]) == len(ref["trace"])
    # and the absolute numbers did cross what the ISN was chosen to cross
    absolute = [(rel + isn) & SEQ_MASK for _, _, _, rel, _, _, _ in run["trace"]]
    if isn < SEQ_HALF:
        assert max(absolute) >= SEQ_HALF  # the signed midpoint
    else:
        assert min(absolute) < isn  # wrapped past 2**32
