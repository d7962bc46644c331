"""One-way latency models for network paths.

The testbed in the paper has two very different path classes: intra-DC hops
(sub-millisecond) and the campus-client-to-Azure Internet path (tens of
milliseconds, giving the 133 ms no-LB baseline of Figure 9).  A
:class:`LatencyModel` computes the one-way delay for a packet; the
:class:`~repro.net.network.Network` keeps one per site pair.
"""

from __future__ import annotations

import abc

from repro.net.packet import Packet
from repro.sim.random import SeededRng


class LatencyModel(abc.ABC):
    """Computes the one-way delay, in seconds, for a packet on a path."""

    @abc.abstractmethod
    def delay(self, packet: Packet, rng: SeededRng) -> float:
        """One-way latency for ``packet``; must be >= 0."""


class FixedLatency(LatencyModel):
    """Constant one-way delay; the deterministic default for tests."""

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self.seconds = seconds

    def delay(self, packet: Packet, rng: SeededRng) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"FixedLatency({self.seconds})"


class JitterLatency(LatencyModel):
    """Base delay plus uniform jitter in [0, jitter]."""

    def __init__(self, base: float, jitter: float):
        if base < 0 or jitter < 0:
            raise ValueError("base and jitter must be >= 0")
        self.base = base
        self.jitter = jitter

    def delay(self, packet: Packet, rng: SeededRng) -> float:
        # bit-equal to base + rng.uniform(0.0, jitter), which computes
        # 0.0 + (jitter - 0.0) * random(): one draw either way
        return self.base + self.jitter * rng.random()

    def __repr__(self) -> str:
        return f"JitterLatency(base={self.base}, jitter={self.jitter})"
