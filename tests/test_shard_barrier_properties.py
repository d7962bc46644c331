"""Barrier-protocol properties: the sharded cut must not change physics.

The core claim of the conservative-lookahead design is that cutting a
world across shards is *invisible* to the simulation: every packet
arrives at the same host at the same virtual time as in a single-process
run.  A toy two-cell ping-pong topology (fixed latencies, so the claim
is exact, not statistical) is run three ways -- single process, 2-shard
inline, 2-shard forked -- and the merged delivery schedules must match
event for event.

Plus direct unit properties of the window arithmetic, the deterministic
routing sort, and the wire format boundary packets cross the pipe in.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.errors import ShardError
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import ACK, SYN, Packet
from repro.shard import BarrierCoordinator, ShardedRunner, ShardPlanner
from repro.shard.gateway import WIRE_VERSION, from_wire, to_wire
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

PING_COUNT = 16  # round trips per ping chain
THINK = 0.00075  # local processing delay before a pong goes back out
NUM_CELLS = 2

Event = Tuple[float, str, str, int]


def _host_ip(cell: int) -> str:
    return f"10.3.{cell}.1"  # inside the cell's backend prefix


def _wire_hosts(loop: EventLoop, network: Network, cells,
                events: List[Event]) -> None:
    """Attach one ping-pong host per cell and schedule the initial pings."""
    for cell in cells:
        host = network.attach(
            Host(f"pinger{cell.index}", [_host_ip(cell.index)],
                 site=cell.site))

        def handler(pkt, host=host):
            events.append((round(loop.now(), 9), pkt.src.ip, pkt.dst.ip,
                           pkt.seq))
            if pkt.seq > 0:
                reply = Packet(
                    Endpoint(pkt.dst.ip, pkt.dst.port),
                    Endpoint(pkt.src.ip, pkt.src.port),
                    seq=pkt.seq - 1)
                loop.call_later(THINK, host.send, reply)

        host.set_handler(handler)

    def kick(src_cell: int) -> None:
        src = network.host(f"pinger{src_cell}")
        dst_cell = (src_cell + 1) % NUM_CELLS
        ping = Packet(
            Endpoint(_host_ip(src_cell), 9000),
            Endpoint(_host_ip(dst_cell), 9000),
            seq=PING_COUNT)
        src.send(ping)

    for cell in cells:
        loop.call_later(0.1 + 0.013 * cell.index, kick, cell.index)


class _ToyWorld:
    """ShardWorld for one shard of the ping-pong topology."""

    def __init__(self, shard_index: int, plan):
        self.loop = EventLoop()
        self.network = Network(self.loop, SeededRng(plan.seed))
        for (src, dst), model in plan.models.items():
            self.network.set_latency(src, dst, model)
        self.events: List[Event] = []
        _wire_hosts(self.loop, self.network, plan.cells_on(shard_index),
                    self.events)

    def stats(self) -> Dict[str, object]:
        return {"events": tuple(self.events)}


def _reference_schedule(plan, duration: float) -> List[Event]:
    """All cells on one network in one process: the ground truth."""
    loop = EventLoop()
    network = Network(loop, SeededRng(plan.seed))
    for (src, dst), model in plan.models.items():
        network.set_latency(src, dst, model)
    events: List[Event] = []
    _wire_hosts(loop, network, plan.cells, events)
    loop.run(until=duration)
    return sorted(events)


def _sharded_schedule(plan, duration: float, mode: str):
    runner = ShardedRunner(plan, lambda i, p: _ToyWorld(i, p), mode=mode)
    result = runner.run(duration)
    merged: List[Event] = []
    for stats in result.per_shard:
        merged.extend(tuple(e) for e in stats["events"])
    return sorted(merged), result


@pytest.fixture(scope="module")
def plan2():
    return ShardPlanner(num_cells=NUM_CELLS, num_shards=2, seed=2016).plan()


class TestCutInvariance:
    DURATION = 2.0

    def test_two_shard_inline_matches_single_process(self, plan2):
        reference = _reference_schedule(plan2, self.DURATION)
        sharded, result = _sharded_schedule(plan2, self.DURATION, "inline")
        # the chains actually ran and actually crossed the cut
        assert len(reference) == 2 * (PING_COUNT + 1)
        assert result.cross_shard_packets > 0
        assert sharded == reference

    def test_two_shard_forked_matches_single_process(self, plan2):
        reference = _reference_schedule(plan2, self.DURATION)
        sharded, result = _sharded_schedule(plan2, self.DURATION, "fork")
        assert result.cross_shard_packets > 0
        assert sharded == reference

    def test_sharded_run_is_reproducible(self, plan2):
        first, r1 = _sharded_schedule(plan2, self.DURATION, "inline")
        second, r2 = _sharded_schedule(plan2, self.DURATION, "inline")
        assert first == second
        assert r1.digest == r2.digest


class TestWindowArithmetic:
    def test_windows_cover_duration_exactly(self, plan2):
        coord = BarrierCoordinator(plan2)
        ends = coord.window_ends(3.0, 1.0)
        assert ends[-1] == pytest.approx(4.0)
        assert all(b > a for a, b in zip(ends, ends[1:]))
        assert all(e - s <= plan2.window + 1e-12
                   for s, e in zip([3.0] + ends, ends))

    def test_non_multiple_duration_gets_a_short_final_window(self, plan2):
        coord = BarrierCoordinator(plan2)
        ends = coord.window_ends(0.0, plan2.window * 2.5)
        assert len(ends) == 3
        assert ends[-1] == pytest.approx(plan2.window * 2.5)

    def test_duration_shorter_than_window(self, plan2):
        coord = BarrierCoordinator(plan2)
        assert coord.window_ends(0.0, plan2.window / 10) == [
            pytest.approx(plan2.window / 10)]


class TestDeterministicRouting:
    def _export(self, dst, arrival, seq, host="h", wire=("w",)):
        return (dst, arrival, seq, host, wire)

    def test_batches_sorted_by_arrival_origin_seq(self, plan2):
        coord = BarrierCoordinator(plan2)
        exports = [
            [self._export(1, 0.5, 2), self._export(1, 0.2, 1)],
            [self._export(1, 0.2, 0), self._export(0, 0.3, 0)],
        ]
        out = coord.route(exports)
        assert [d[:3] for d in out[1]] == [
            (0.2, 0, 1), (0.2, 1, 0), (0.5, 0, 2)]
        assert [d[:3] for d in out[0]] == [(0.3, 1, 0)]
        assert coord.packets_routed == 4

    def test_unknown_destination_shard_rejected(self, plan2):
        coord = BarrierCoordinator(plan2)
        with pytest.raises(ShardError, match="unknown shard"):
            coord.route([[self._export(9, 0.1, 0)]])


def _mk(**kw) -> Packet:
    return Packet(Endpoint("10.0.0.1", 1234), Endpoint("10.0.1.1", 80), **kw)


class TestWireFormat:
    """A packet crossing a shard boundary is flattened by ``to_wire`` and
    rebuilt by ``from_wire``; anything that cannot cross intact must raise
    ``ShardError`` loudly rather than corrupt another world silently."""

    def test_wire_fields_survive(self):
        pkt = _mk(flags=SYN | ACK, seq=7, ack=41, payload=b"hello")
        pkt.meta["route"] = "vip"
        pkt.meta["hops"] = 3
        wire = to_wire(pkt)
        assert wire[0] == WIRE_VERSION
        clone = from_wire(wire)
        assert clone is not pkt
        assert clone.src == Endpoint("10.0.0.1", 1234)
        assert clone.dst == Endpoint("10.0.1.1", 80)
        assert clone.flags == SYN | ACK
        assert (clone.seq, clone.ack, clone.payload) == (7, 41, b"hello")
        assert clone.meta == {"route": "vip", "hops": 3}

    def test_wire_is_plain_data(self):
        """Nothing object-shaped crosses the pipe: the wire tuple must
        survive a pickle round-trip without custom reducers."""
        import pickle

        pkt = _mk(payload=b"x", flags=SYN)
        pkt.meta["tags"] = ("a", "b")
        wire = to_wire(pkt)
        assert pickle.loads(pickle.dumps(wire)) == wire

    def test_bad_version_rejected(self):
        with pytest.raises(ShardError, match="wire format"):
            from_wire((WIRE_VERSION + 1, "10.0.0.1", 1, "10.0.0.2", 2,
                       0, 0, 0, b"", ()))

    def test_garbage_rejected(self):
        for junk in (None, (), "packet", 42, (WIRE_VERSION, "10.0.0.1")):
            with pytest.raises(ShardError, match="wire format"):
                from_wire(junk)

    def test_unserializable_meta_rejected(self):
        pkt = _mk()
        pkt.meta["handler"] = lambda: None  # a live object must not cross
        with pytest.raises(ShardError, match="handler"):
            to_wire(pkt)
