"""The simulated TCP/IP packet.

One class models the whole header stack the simulation needs: IP addresses,
TCP ports/flags/sequence numbers, and a payload.  The ``meta`` mapping
carries out-of-band simulation facts that real networks encode elsewhere
(e.g. the IP-in-IP encapsulation target the L4 mux would add, Ananta-style).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.errors import NetworkError, ShardError
from repro.net.addresses import Endpoint, FourTuple

# TCP flag bits (same values as the real header, for familiarity).
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

IP_TCP_HEADER_BYTES = 40  # 20 IP + 20 TCP, ignoring options

_packet_ids = itertools.count(1)


def flags_to_str(flags: int) -> str:
    """tcpdump-style flag string: 'S', 'S.', '.', 'P.', 'F.', 'R'."""
    out = ""
    if flags & SYN:
        out += "S"
    if flags & FIN:
        out += "F"
    if flags & RST:
        out += "R"
    if flags & PSH:
        out += "P"
    if flags & ACK:
        out += "."
    return out or "-"


# flags_to_str for every 5-bit mask (index with ``flags & 0x1F``): the
# capture path renders the flags of each traced packet twice (tx and rx),
# so it indexes instead of building
_FLAG_STR = tuple(flags_to_str(mask) for mask in range(32))


@dataclass(slots=True)
class Packet:
    """A TCP segment travelling through the simulated network.

    Attributes:
        src, dst: L3/L4 endpoints as seen on the wire *right now* -- the
            L4 LB and YODA instances rewrite these in flight, exactly as the
            paper's Figure 4 shows.
        flags: TCP flag bitmask (SYN/ACK/FIN/RST/PSH).
        seq: sequence number of the first payload byte (or of the SYN/FIN).
        ack: acknowledgment number; meaningful when the ACK flag is set.
        payload: application bytes carried by this segment.
        meta: simulation side-channel (encapsulation target, original
            5-tuple before SNAT, ...).  Never inspected by endpoints.
        pool_state: free-list bookkeeping (see :class:`PacketPool`); 0 for
            packets constructed directly.
    """

    src: Endpoint
    dst: Endpoint
    flags: int = 0
    seq: int = 0
    ack: int = 0
    payload: bytes = b""
    meta: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    pool_state: int = field(default=0, repr=False, compare=False)

    # -- flag helpers ----------------------------------------------------
    @property
    def syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def is_pure_ack(self) -> bool:
        """ACK flag set, no payload, no SYN/FIN/RST."""
        return (
            self.has_ack
            and not self.payload
            and not (self.flags & (SYN | FIN | RST))
        )

    # -- sizes -----------------------------------------------------------
    @property
    def payload_len(self) -> int:
        return len(self.payload)

    @property
    def wire_len(self) -> int:
        return IP_TCP_HEADER_BYTES + len(self.payload)

    @property
    def seq_span(self) -> int:
        """Sequence-space consumed: payload bytes, +1 for SYN, +1 for FIN."""
        span = len(self.payload)
        if self.syn:
            span += 1
        if self.fin:
            span += 1
        return span

    # -- identity --------------------------------------------------------
    @property
    def four_tuple(self) -> FourTuple:
        return FourTuple(self.src, self.dst)

    def copy(self, **changes: Any) -> "Packet":
        """A shallow copy with a fresh packet id and optional field changes."""
        fields = dict(
            src=self.src,
            dst=self.dst,
            flags=self.flags,
            seq=self.seq,
            ack=self.ack,
            payload=self.payload,
            meta=dict(self.meta),
        )
        fields.update(changes)
        return Packet(**fields)

    def summary(self) -> str:
        return (
            f"{self.src} > {self.dst}: {flags_to_str(self.flags)} "
            f"seq={self.seq} ack={self.ack} len={self.payload_len}"
        )

    def __repr__(self) -> str:
        return f"Packet({self.summary()})"


# pool_state values
_POOL_FOREIGN = 0  # constructed directly; the pool never recycles it
_POOL_LIVE = 1  # issued by a pool, currently in flight
_POOL_FREE = 2  # sitting on a free list
_POOL_DETACHED = 3  # serialized for a cross-process handoff; locally dead

# wire-format version for detached packets (first tuple element); bumping
# it makes a mixed-version shard fleet fail loudly instead of misparsing
WIRE_VERSION = 1

_WIRE_SCALARS = (str, int, float, bytes, bool, type(None))


def _wire_meta(meta: Dict[str, Any]) -> tuple:
    """Validate and flatten ``meta`` for pickling across a process pipe.

    Only plain data may cross a shard boundary -- a meta entry holding a
    live object (host, flow, callback) would silently detach from its
    world when pickled, so anything non-scalar raises instead.
    """
    items = []
    for key, value in meta.items():
        if not _wire_safe(value):
            raise ShardError(
                f"packet meta[{key!r}] = {value!r} cannot cross a shard "
                f"boundary (only plain str/int/float/bytes/bool/None and "
                f"tuples/lists/dicts of those serialize)"
            )
        items.append((key, value))
    return tuple(items)


def _wire_safe(value: Any) -> bool:
    if isinstance(value, _WIRE_SCALARS):
        return True
    if isinstance(value, (tuple, list)):
        return all(_wire_safe(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _wire_safe(v)
                   for k, v in value.items())
    return False


class PacketPool:
    """A free list for :class:`Packet` objects on the TCP hot path.

    ``acquire`` hands out a recycled instance (with a fresh ``packet_id``
    and cleared ``meta``) when one is available, else constructs a new one.
    ``release`` returns a packet to the free list; it is only legal at
    points where the object is provably dead -- in this simulator, the
    transmit-side drop paths in ``Network.transmit``, which run before any
    delivery (or duplicate delivery) could retain a reference.  Releasing
    a directly-constructed packet is a no-op, so the network can release
    unconditionally.

    With ``debug=True`` (and at no cost otherwise), misuse raises:
    releasing the same object twice always raises; mutating a packet after
    releasing it is detected by a field fingerprint at the next acquire.
    """

    def __init__(self, debug: bool = False):
        self._free: list = []
        self._debug = debug
        self._fingerprints: Dict[int, tuple] = {}
        # packets serialized for a cross-shard handoff, awaiting reclaim;
        # fingerprinted unconditionally -- the boundary is not the hot path
        # and a mutate-after-detach would corrupt another world's flow
        self._detached: list = []
        self._detached_fingerprints: Dict[int, tuple] = {}
        self.created = 0
        self.recycled = 0
        self.detached = 0
        self.adopted = 0

    @staticmethod
    def _fingerprint(pkt: Packet) -> tuple:
        return (pkt.src, pkt.dst, pkt.flags, pkt.seq, pkt.ack, pkt.payload,
                len(pkt.meta), pkt.packet_id)

    def acquire(self, src: Endpoint, dst: Endpoint, flags: int = 0,
                seq: int = 0, ack: int = 0, payload: bytes = b"") -> Packet:
        if self._free:
            pkt = self._free.pop()
            if self._debug:
                expected = self._fingerprints.pop(id(pkt), None)
                if expected is not None and expected != self._fingerprint(pkt):
                    raise NetworkError(
                        f"pooled packet mutated after release: {pkt!r}"
                    )
            pkt.src = src
            pkt.dst = dst
            pkt.flags = flags
            pkt.seq = seq
            pkt.ack = ack
            pkt.payload = payload
            pkt.meta.clear()
            pkt.packet_id = next(_packet_ids)
            self.recycled += 1
        else:
            pkt = Packet(src=src, dst=dst, flags=flags, seq=seq, ack=ack,
                         payload=payload)
            self.created += 1
        pkt.pool_state = _POOL_LIVE
        return pkt

    def release(self, packet: Packet) -> bool:
        """Return ``packet`` to the free list.

        Returns True if the packet was adopted; False for foreign
        (directly constructed) packets.  Raises on double release.
        """
        state = packet.pool_state
        if state == _POOL_FREE:
            raise NetworkError(f"packet released twice: {packet!r}")
        if state == _POOL_DETACHED:
            raise ShardError(
                f"packet released after detach (ownership was transferred "
                f"to another shard): {packet!r}"
            )
        if state != _POOL_LIVE:
            return False
        packet.pool_state = _POOL_FREE
        if self._debug:
            self._fingerprints[id(packet)] = self._fingerprint(packet)
        self._free.append(packet)
        return True

    def free_count(self) -> int:
        return len(self._free)

    # -- cross-process handoff (the sharded simulator's boundary) ---------
    def detach(self, packet: Packet) -> tuple:
        """Serialize ``packet`` for a cross-shard handoff.

        Returns a plain picklable wire tuple and marks the local object
        dead: ownership transfers to whichever :class:`PacketPool` later
        :meth:`adopt`\\ s the tuple.  Detaching twice, detaching a released
        packet, or releasing after detach all raise; mutating the object
        after detach is caught (always, not just in debug mode) when the
        pool reclaims its detached packets at the next barrier.
        """
        state = packet.pool_state
        if state == _POOL_DETACHED:
            raise ShardError(f"packet detached twice: {packet!r}")
        if state == _POOL_FREE:
            raise ShardError(f"detach of a released packet: {packet!r}")
        wire = (
            WIRE_VERSION,
            packet.src.ip, packet.src.port,
            packet.dst.ip, packet.dst.port,
            packet.flags, packet.seq, packet.ack, packet.payload,
            _wire_meta(packet.meta),
        )
        packet.pool_state = _POOL_DETACHED
        if state == _POOL_LIVE:
            self._detached.append(packet)
            self._detached_fingerprints[id(packet)] = self._fingerprint(packet)
        self.detached += 1
        return wire

    def adopt(self, wire: tuple) -> Packet:
        """Rehydrate a detached wire tuple into a packet owned by *this*
        pool (the receiving shard's side of the ownership transfer)."""
        if not isinstance(wire, tuple) or not wire or wire[0] != WIRE_VERSION:
            raise ShardError(f"unrecognized packet wire format: {wire!r}")
        _, src_ip, src_port, dst_ip, dst_port, flags, seq, ack, payload, meta = wire
        pkt = self.acquire(Endpoint(src_ip, src_port), Endpoint(dst_ip, dst_port),
                           flags=flags, seq=seq, ack=ack, payload=payload)
        for key, value in meta:
            pkt.meta[key] = value
        self.adopted += 1
        return pkt

    def reclaim_detached(self) -> int:
        """Fold detached packets back into the free list.

        Called at a shard barrier, once the wire tuples are safely on the
        pipe.  Any packet mutated since its detach raises -- that object
        was supposed to be dead, and the mutation means some component
        still holds (and uses) a reference it no longer owns.
        """
        count = 0
        for pkt in self._detached:
            expected = self._detached_fingerprints.pop(id(pkt), None)
            if expected is not None and expected != self._fingerprint(pkt):
                raise ShardError(
                    f"detached packet mutated before reclaim: {pkt!r}"
                )
            pkt.pool_state = _POOL_FREE
            if self._debug:
                self._fingerprints[id(pkt)] = self._fingerprint(pkt)
            self._free.append(pkt)
            count += 1
        self._detached.clear()
        return count

    def detached_count(self) -> int:
        return len(self._detached)


# The shared pool the TCP hot path draws from; Network.transmit releases
# dropped packets back into it.
PACKET_POOL = PacketPool()


def make_syn(src: Endpoint, dst: Endpoint, isn: int) -> Packet:
    return Packet(src=src, dst=dst, flags=SYN, seq=isn)


def make_syn_ack(src: Endpoint, dst: Endpoint, isn: int, ack: int) -> Packet:
    return Packet(src=src, dst=dst, flags=SYN | ACK, seq=isn, ack=ack)


def make_ack(src: Endpoint, dst: Endpoint, seq: int, ack: int) -> Packet:
    return Packet(src=src, dst=dst, flags=ACK, seq=seq, ack=ack)


def make_rst(src: Endpoint, dst: Endpoint, seq: int) -> Packet:
    return Packet(src=src, dst=dst, flags=RST, seq=seq)
