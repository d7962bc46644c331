"""The shard gateway: one shard's side of every cross-shard link.

Installed as the network's export handler, it captures packets whose
destination IP belongs to another shard *at their exact transmit time*,
flattens them to plain-data wire tuples (:func:`to_wire`), and stamps each
with the arrival time implied by the cross-shard link's latency model.
The barrier coordinator routes the resulting wire records; the destination
shard's gateway rebuilds the packets (:func:`from_wire`) and schedules
delivery.

Determinism: export order is the deterministic event order of the local
loop; every record carries a monotonic sequence number; the coordinator
sorts deliveries by (arrival time, origin shard, sequence), so injection
order is a pure function of the run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ShardError
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.network import Network
from repro.net.packet import Packet
from repro.shard.plan import ShardPlan
from repro.sim.random import SeededRng

# wire-format version (first tuple element); bumping it makes a
# mixed-version shard fleet fail loudly instead of misparsing
WIRE_VERSION = 1

_WIRE_SCALARS = (str, int, float, bytes, bool, type(None))


def _wire_safe(value: Any) -> bool:
    if isinstance(value, _WIRE_SCALARS):
        return True
    if isinstance(value, (tuple, list)):
        return all(_wire_safe(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _wire_safe(v)
                   for k, v in value.items())
    return False


def _wire_meta(meta: Dict[str, Any]) -> tuple:
    """Validate and flatten ``meta`` for pickling across a process pipe.

    Only plain data may cross a shard boundary -- a meta entry holding a
    live object (host, flow, callback) would silently detach from its
    world when pickled, so anything non-scalar raises instead.
    """
    for key, value in meta.items():
        if not _wire_safe(value):
            raise ShardError(
                f"packet meta[{key!r}] = {value!r} cannot cross a shard "
                f"boundary (only plain str/int/float/bytes/bool/None and "
                f"tuples/lists/dicts of those serialize)"
            )
    return tuple(meta.items())


def to_wire(packet: Packet) -> tuple:
    """Flatten ``packet`` to a plain picklable tuple for another shard."""
    return (
        WIRE_VERSION,
        packet.src.ip, packet.src.port,
        packet.dst.ip, packet.dst.port,
        packet.flags, packet.seq, packet.ack, packet.payload,
        _wire_meta(packet.meta),
    )


def from_wire(wire: tuple) -> Packet:
    """Rebuild a packet (fresh ``packet_id``) from another shard's tuple."""
    if not isinstance(wire, tuple) or len(wire) != 10 or wire[0] != WIRE_VERSION:
        raise ShardError(f"unrecognized packet wire format: {wire!r}")
    _, src_ip, src_port, dst_ip, dst_port, flags, seq, ack, payload, meta = wire
    return Packet(Endpoint(src_ip, src_port), Endpoint(dst_ip, dst_port),
                  flags=flags, seq=seq, ack=ack, payload=payload,
                  meta=dict(meta))


# (dst_shard, arrival_time, send_seq, origin_host_name, wire_tuple)
ExportRecord = Tuple[int, float, int, str, tuple]
# (arrival_time, origin_shard, send_seq, origin_host_name, wire_tuple)
DeliveryRecord = Tuple[float, int, int, str, tuple]


class ShardGateway:
    """Captures, serializes and rehydrates boundary packets for one shard."""

    def __init__(self, shard_index: int, plan: ShardPlan, network: Network):
        self.shard_index = shard_index
        self.plan = plan
        self.network = network
        # jitter on cross-shard links draws from a stream owned by the
        # *sending* gateway, independent of every in-shard stream
        self._xrng = SeededRng(plan.seed).fork(f"xshard/{shard_index}")
        self._outbox: List[ExportRecord] = []
        self._seq = 0
        self.exported = 0
        self.injected = 0
        self.unroutable = 0
        network.set_export_handler(self._export)

    # -- transmit side ---------------------------------------------------
    def _export(self, src_host: Host, packet: Packet) -> None:
        owner = self.plan.owner_of_ip(packet.dst.ip)
        if owner is None or owner[0] == self.shard_index:
            # nobody owns the address (or we do, and it is dead): same
            # fate as the network's own no-route drop
            self.unroutable += 1
            return
        dst_shard, dst_site = owner
        model = self.plan.link_model(src_host.site, dst_site)
        arrival = self.network.loop.now() + model.delay(packet, self._xrng)
        self._outbox.append(
            (dst_shard, arrival, self._seq, src_host.name, to_wire(packet)))
        self._seq += 1
        self.exported += 1

    def drain(self) -> List[ExportRecord]:
        """Hand the window's exports to the coordinator."""
        out, self._outbox = self._outbox, []
        return out

    # -- receive side ----------------------------------------------------
    def inject_all(self, deliveries: List[DeliveryRecord]) -> None:
        """Rebuild and schedule a window's worth of incoming packets.

        ``deliveries`` arrive pre-sorted by (arrival, origin shard, seq);
        conservative lookahead guarantees every arrival time is at or
        after the current window start, so scheduling is always legal.
        """
        for arrival, _origin_shard, _seq, origin_host, wire in deliveries:
            self.network.inject(from_wire(wire), arrival,
                                src_name=origin_host)
            self.injected += 1
