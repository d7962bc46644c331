"""A fixed ceiling on connection-phase flows.

Bounds how many connection-phase flows (SYN admitted, not yet established
or destroyed) an instance holds at once, so a SYN flood or a stalled store
queues at most ``LIMITER_CEILING`` handshakes behind it and sheds the rest
at the SYN stage.

Pure counters: acquiring and releasing never schedule events or draw
randomness, so a limiter that is never driven to its ceiling is invisible
to the packet schedule.
"""

from __future__ import annotations

LIMITER_CEILING = 512  # connection-phase flows one instance holds at once


class ConcurrencyLimiter:
    """A fixed limit on in-flight connection admissions."""

    __slots__ = ("limit", "inflight")

    def __init__(self):
        self.limit = LIMITER_CEILING
        self.inflight = 0

    def try_acquire(self) -> bool:
        """Claim a connection-phase slot; False = shed this SYN."""
        if self.inflight >= self.limit:
            return False
        self.inflight += 1
        return True

    def release(self) -> None:
        """A flow left the connection phase (established or destroyed)."""
        if self.inflight > 0:
            self.inflight -= 1
