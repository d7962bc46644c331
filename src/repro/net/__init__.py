"""Simulated network fabric: addresses, packets, hosts and links.

The fabric delivers :class:`~repro.net.packet.Packet` objects between
:class:`~repro.net.host.Host` objects with per-site-pair latency models,
optional loss, failure injection and tcpdump-style tracing.  It is the layer
beneath TCP; everything above (TCP endpoints, the L4 LB muxes, YODA's
packet driver) exchanges packets through a single :class:`Network`.
"""

from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency, JitterLatency, LatencyModel
from repro.net.network import Network
from repro.net.packet import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    Packet,
    flags_to_str,
)

__all__ = [
    "Endpoint",
    "Host",
    "Network",
    "Packet",
    "SYN",
    "ACK",
    "FIN",
    "RST",
    "PSH",
    "flags_to_str",
    "LatencyModel",
    "FixedLatency",
    "JitterLatency",
]
