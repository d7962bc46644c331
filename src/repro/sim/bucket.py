"""The token bucket that paces admission, repair and site sync.

It refills lazily on access, as a pure function of the ``now`` it is read
at: no timers are scheduled and no randomness is drawn.
"""

from __future__ import annotations


class TokenBucket:
    """``capacity`` tokens, refilled at ``rate`` per simulated second."""

    __slots__ = ("rate", "capacity", "tokens", "updated")

    def __init__(self, rate: float, capacity: float, now: float):
        if rate <= 0 or capacity <= 0:
            raise ValueError("token bucket rate and capacity must be positive")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.updated = now

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(self.capacity,
                              self.tokens + (now - self.updated) * self.rate)
            self.updated = now

    def level(self, now: float) -> float:
        """Current fill fraction in [0, 1]."""
        self._refill(now)
        return self.tokens / self.capacity

    def try_take(self, now: float) -> bool:
        """Take one token if there is one."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
