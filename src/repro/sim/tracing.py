"""tcpdump-like packet tracing.

Figure 12(b) of the paper is a tcpdump captured at a backend server during a
YODA instance failure.  :class:`PacketTrace` reproduces that: any host (or
the network fabric itself) can attach one and every packet it sees is
recorded with its simulated timestamp and a structured summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

# Tap scopes (a class attribute ``scope`` on the tap).  An "all" tap is handed
# a record of every transmission and every delivery.  A tap that only judges
# takes each wire transmission once, as the packet itself, ``record(now,
# packet, dropped)``, and no record is built for it.
SCOPE_ALL = "all"
SCOPE_WIRE_PACKET = "wire-packet"


@dataclass(slots=True)
class TraceRecord:
    """One captured packet.  The network builds one positionally for every
    tx and rx a record tap will see, so it is a plain (not frozen) slotted
    record and carries no rendering that no tap reads."""

    time: float
    point: str  # capture point, e.g. "server-3" or "wire"
    direction: str  # "rx" or "tx"
    src: str
    dst: str
    flags: str
    seq: int
    ack: int
    payload_len: int
    dropped: bool = False

    @property
    def summary(self) -> str:
        """Human-readable one-liner, tcpdump style."""
        return (f"{self.src} > {self.dst}: {self.flags} seq={self.seq} "
                f"ack={self.ack} len={self.payload_len}")

    def __str__(self) -> str:
        drop = " DROPPED" if self.dropped else ""
        return (f"{self.time:10.6f} {self.point} {self.direction} "
                f"{self.summary}{drop}")


def endpoint_on_host(endpoint: str, addr: str) -> bool:
    """Does the rendered ``endpoint`` ("ip:port") match ``addr`` -- a bare
    IP (any port on that host) or a full "ip:port"?  A bare prefix test
    would let "10.0.0.1" claim "10.0.0.10:80"."""
    return endpoint == addr or endpoint.startswith(addr + ":")


class PacketTrace:
    """Accumulates :class:`TraceRecord` entries."""

    def __init__(self):
        self.records: List[TraceRecord] = []
        self.enabled = True

    def record(self, rec: TraceRecord) -> None:
        if self.enabled:
            self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def dump(self) -> str:
        """The whole trace as tcpdump-style text."""
        return "\n".join(str(r) for r in self.records)

    def retransmissions(self) -> List[TraceRecord]:
        """Records whose (src, dst, seq, payload_len) was already seen --
        i.e. retransmitted data segments."""
        seen = set()
        out = []
        for r in self.records:
            if r.payload_len == 0 and "S" not in r.flags:
                continue
            key = (r.src, r.dst, r.seq, r.payload_len, r.flags)
            if key in seen:
                out.append(r)
            seen.add(key)
        return out
