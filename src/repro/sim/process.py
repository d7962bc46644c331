"""Timer helpers built on the event loop.

:class:`Timer` is a restartable one-shot timer (the shape TCP retransmission
needs); :class:`PeriodicTask` repeats at a fixed interval (the shape the
YODA monitor's 600 ms health ping needs).
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventLoop


def _nothing() -> None:
    """A released timer's callback."""


class Timer:
    """A restartable one-shot timer.

    ``start`` (re)arms the timer; ``cancel`` disarms it.  The callback is
    invoked with no arguments when the timer expires.

    It is a *deadline* timer: re-arming to the same or a later instant
    while a loop event is already pending -- a retransmission timer is
    pushed out by every ACK and almost never fires -- only stores the new
    deadline.  The pending event, when it fires early, re-schedules itself
    at exactly the stored deadline, so the callback runs at the instant
    ``call_later(delay)`` of the last ``start`` would have produced, to the
    bit.  What differs from cancel-and-reschedule is the tie-break only:
    the expiry carries the ``seq`` of the loop event that delivers it (the
    last wake-up, or the first ``start`` if there was none), not of the
    last ``start``, so against a foreign event at the bit-equal instant it
    orders by when that loop event was scheduled.  ``start`` to an earlier
    instant and ``cancel`` cancel the loop event for real: a disarmed timer
    leaves nothing pending.
    """

    __slots__ = ("_loop", "_callback", "_event", "_deadline")

    def __init__(self, loop: EventLoop, callback: Callable[[], Any]):
        self._loop = loop
        self._callback = callback
        # the one pending loop event (None exactly when disarmed) and the
        # instant the callback is due; _event.time <= _deadline always
        self._event: Optional[Event] = None
        self._deadline: Optional[float] = None

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        loop = self._loop
        deadline = loop.now() + delay  # the float call_later computes
        event = self._event
        if event is not None:
            if event.time <= deadline < inf:
                self._deadline = deadline
                return
            # an earlier instant -- or one the loop will refuse (negative
            # delay, NaN, infinity), which it can only do if asked
            self.cancel()
        self._event = loop.call_later(delay, self._fire)
        self._deadline = deadline

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None
            self._deadline = None

    def release(self) -> None:
        """Disarm for good and drop the callback, and what it holds."""
        self.cancel()
        self._callback = _nothing

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline > self._loop.now():
            # woken at a superseded deadline: sleep on to the current one
            self._event = self._loop.call_at(deadline, self._fire)
            return
        self._event = None
        self._deadline = None
        self._callback()


class PeriodicTask:
    """Calls ``callback()`` every ``interval`` seconds until stopped.

    The first call happens ``interval`` seconds after :meth:`start` (or
    immediately when ``fire_now=True``).
    """

    __slots__ = ("_loop", "interval", "_callback", "_event", "_running")

    def __init__(self, loop: EventLoop, interval: float, callback: Callable[[], Any]):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._loop = loop
        self.interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, fire_now: bool = False) -> None:
        if self._running:
            return
        self._running = True
        delay = 0.0 if fire_now else self.interval
        self._event = self._loop.call_later(delay, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._event = self._loop.call_later(self.interval, self._tick)
