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

from repro.net.addresses import Endpoint

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
        src, dst: L3/L4 endpoints as seen on the wire.  The header fields
            (these, flags, seq, ack, payload) are set when the packet is
            built and never reassigned: the L4 LB and YODA instances
            translate (the paper's Figure 4) by building a new packet, and
            the run digest captures a transmission once on that fact.
        flags: TCP flag bitmask (SYN/ACK/FIN/RST/PSH).
        seq: sequence number of the first payload byte (or of the SYN/FIN).
        ack: acknowledgment number; meaningful when the ACK flag is set.
        payload: application bytes carried by this segment.
        meta: simulation side-channel (encapsulation target, original
            5-tuple before SNAT, ...).  Never inspected by endpoints.
    """

    src: Endpoint
    dst: Endpoint
    flags: int = 0
    seq: int = 0
    ack: int = 0
    payload: bytes = b""
    meta: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=_packet_ids.__next__)

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

    # -- sizes -----------------------------------------------------------
    @property
    def payload_len(self) -> int:
        return len(self.payload)

    @property
    def seq_span(self) -> int:
        """Sequence-space consumed: payload bytes, +1 for SYN, +1 for FIN."""
        span = len(self.payload)
        if self.syn:
            span += 1
        if self.fin:
            span += 1
        return span

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
