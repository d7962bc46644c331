"""Hosts: the things packets are delivered to.

A host owns one or more IP addresses (the L4 LB owns every VIP) and a packet
handler.  Failure injection lives here: a failed host silently drops
everything it receives and refuses to send -- exactly what a crashed VM
looks like from the network, which is what the paper's failure experiments
rely on (no RST, no FIN; peers discover the failure only via timeouts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import NetworkError
from repro.net.packet import IP_TCP_HEADER_BYTES, Packet
from repro.sim.metrics import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

PacketHandler = Callable[[Packet], None]


class Host:
    """A network-attached node.

    Attributes:
        name: unique human-readable identifier.
        ips: addresses this host answers for.
        site: latency domain ("dc", "internet", ...); the network picks the
            latency model from the (src site, dst site) pair.
    """

    def __init__(self, name: str, ips: List[str], site: str = "dc"):
        if not ips:
            raise NetworkError(f"host {name!r} needs at least one IP")
        self.name = name
        self.ips = list(ips)
        self.site = site
        self.network: Optional["Network"] = None
        self.failed = False
        self.metrics = MetricRegistry(name)
        self._handler: Optional[PacketHandler] = None
        # counter objects cached once and bumped in place; registry
        # lookups and method calls are off the per-packet path
        self._c_tx_packets = self.metrics.counter("tx_packets")
        self._c_tx_bytes = self.metrics.counter("tx_bytes")
        self._c_rx_packets = self.metrics.counter("rx_packets")
        self._c_rx_bytes = self.metrics.counter("rx_bytes")
        self._c_rx_dropped = self.metrics.counter("rx_dropped_failed")

    @property
    def ip(self) -> str:
        """Primary address."""
        return self.ips[0]

    def set_handler(self, handler: PacketHandler) -> None:
        """Install the function that receives every delivered packet."""
        self._handler = handler

    # -- lifecycle ---------------------------------------------------------
    def fail(self) -> None:
        """Crash the host: drop all future rx/tx until :meth:`recover`."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    # -- I/O ----------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit a packet into the network fabric."""
        network = self.network
        if network is None:
            raise NetworkError(f"host {self.name!r} is not attached to a network")
        if self.failed:
            return  # a crashed VM transmits nothing
        self._c_tx_packets.value += 1
        self._c_tx_bytes.value += IP_TCP_HEADER_BYTES + len(packet.payload)
        network.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the network when a packet arrives for one of our IPs."""
        if self.failed:
            self._c_rx_dropped.inc()
            return
        self._c_rx_packets.value += 1
        self._c_rx_bytes.value += IP_TCP_HEADER_BYTES + len(packet.payload)
        handler = self._handler
        if handler is not None:
            handler(packet)
        else:
            self.metrics.counter("rx_unhandled").inc()

    def __repr__(self) -> str:
        state = "FAILED" if self.failed else "up"
        return f"Host({self.name!r}, ips={self.ips}, {state})"
