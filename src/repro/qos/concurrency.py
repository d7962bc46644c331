"""AIMD adaptive concurrency limiting.

Bounds how many connection-phase flows an instance holds at once, driven
by the latency of the storage operations those flows depend on.  When the
TCPStore runs slow (overloaded, degraded, partially partitioned), admitting
more handshakes just queues more timers behind the same sick store -- the
timeout storm the paper's 100 ms op deadline turns into RST storms.  The
limiter converts that degradation into SYN-stage backpressure instead:
multiplicative decrease on a slow/failed op, additive increase after a
window of healthy ones (TCP Reno's control law, applied to admission).

Pure counters over a caller-supplied clock: acquiring, releasing and
observing never schedule events or draw randomness, so a limiter that is
never driven to its limit is invisible to the packet schedule.
"""

from __future__ import annotations

from typing import Optional

from repro.qos.config import QosConfig


LIMITER_MAX = 4096  # ceiling of the additive increase


class AdaptiveConcurrencyLimiter:
    """AIMD limit on in-flight connection admissions."""

    __slots__ = ("limit", "min_limit", "max_limit", "latency_target",
                 "backoff", "increase", "cooldown", "inflight",
                 "decreases", "increases", "_ok_streak", "_last_decrease")

    def __init__(self, config: QosConfig):
        self.limit = float(config.limiter_initial)
        self.min_limit = float(config.limiter_min)
        self.max_limit = float(LIMITER_MAX)
        self.latency_target: Optional[float] = config.limiter_latency_target
        self.backoff = config.limiter_backoff
        self.increase = config.limiter_increase
        self.cooldown = config.limiter_cooldown
        self.inflight = 0
        self.decreases = 0
        self.increases = 0
        self._ok_streak = 0
        self._last_decrease = float("-inf")

    def try_acquire(self) -> bool:
        """Claim a connection-phase slot; False = shed this SYN."""
        if self.inflight >= int(self.limit):
            return False
        self.inflight += 1
        return True

    def release(self) -> None:
        """A flow left the connection phase (established or destroyed)."""
        if self.inflight > 0:
            self.inflight -= 1

    def observe(self, latency: float, ok: bool, now: float) -> None:
        """Feed one storage-op outcome into the control law."""
        if self.latency_target is None:
            return
        if not ok or latency > self.latency_target:
            self._ok_streak = 0
            # one decrease per cooldown window, or a burst of slow ops
            # would collapse the limit to the floor in a single RTT
            if now - self._last_decrease >= self.cooldown:
                self.limit = max(self.min_limit, self.limit * self.backoff)
                self._last_decrease = now
                self.decreases += 1
            return
        self._ok_streak += 1
        if self._ok_streak >= int(self.limit):
            self.limit = min(self.max_limit, self.limit + self.increase)
            self._ok_streak = 0
            self.increases += 1
