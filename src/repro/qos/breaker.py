"""Per-backend circuit breakers feeding the selection path.

A :class:`CircuitBreaker` is a pure state machine over a caller-supplied
clock -- no timers, no randomness -- so an always-closed breaker board is
invisible to the deterministic packet schedule.  The classic three
states:

- **CLOSED**: traffic flows; consecutive connect failures trip it OPEN.
- **OPEN**: the backend is skipped by selection; after
  ``BREAKER_OPEN_DURATION`` the next ``allow`` check falls through to
  HALF_OPEN.
- **HALF_OPEN**: a bounded number of probe connections are admitted;
  ``BREAKER_HALF_OPEN_PROBES`` successes close the breaker, any failure
  re-opens it.  If every probe slot is consumed but no verdict arrives
  within another ``BREAKER_OPEN_DURATION`` (the probe flow died some other
  way), the slots are re-issued rather than deadlocking the backend out
  forever.

The board plugs into ``RuleTable.select`` via :class:`BreakerView`, which
wraps the controller's health view: a backend is selectable when the
monitor likes it AND its breaker admits traffic.  Selection's existing
fail-open second scan (``_FailOpen``) deliberately bypasses the breakers
too -- when every candidate looks sick, routing somewhere beats resetting
the client.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, Optional

from repro.core.selector import BackendView

BREAKER_FAILURE_THRESHOLD = 5  # consecutive failures to open
BREAKER_OPEN_DURATION = 1.0  # seconds open before probing
BREAKER_HALF_OPEN_PROBES = 2  # probe successes needed to close


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One backend's breaker; all transitions are driven by ``now``."""

    __slots__ = (
        "state", "open_count", "_fail_streak", "_opened_at", "_probes_issued",
        "_probe_successes", "_last_probe_at", "listener",
    )

    def __init__(self, listener: Optional[Callable[[BreakerState, BreakerState], None]] = None):
        self.state = BreakerState.CLOSED
        self.open_count = 0
        self._fail_streak = 0
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        self._last_probe_at = 0.0
        self.listener = listener

    # ------------------------------------------------------------ transitions --
    def _transition(self, new: BreakerState, now: float) -> None:
        old, self.state = self.state, new
        if new is BreakerState.OPEN:
            self.open_count += 1
            self._opened_at = now
            self._fail_streak = 0
        elif new is BreakerState.HALF_OPEN:
            self._probes_issued = 0
            self._probe_successes = 0
            self._last_probe_at = now
        elif new is BreakerState.CLOSED:
            self._fail_streak = 0
        if self.listener is not None and old is not new:
            self.listener(old, new)

    # ------------------------------------------------------------- feedback --
    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= BREAKER_HALF_OPEN_PROBES:
                self._transition(BreakerState.CLOSED, now)
            return
        if self.state is BreakerState.OPEN:
            # a straggler from before the trip; the probe phase decides
            return
        self._fail_streak = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, now)
            return
        if self.state is BreakerState.OPEN:
            return
        self._fail_streak += 1
        if self._fail_streak >= BREAKER_FAILURE_THRESHOLD:
            self._transition(BreakerState.OPEN, now)

    # -------------------------------------------------------------- queries --
    def allow(self, now: float) -> bool:
        """May new traffic be routed to this backend right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= BREAKER_OPEN_DURATION:
                self._transition(BreakerState.HALF_OPEN, now)
                return True
            return False
        # HALF_OPEN: admit while probe slots remain; recycle stuck slots
        if self._probes_issued >= BREAKER_HALF_OPEN_PROBES:
            if now - self._last_probe_at >= BREAKER_OPEN_DURATION:
                self._probes_issued = self._probe_successes
                return True
            return False
        return True

    def on_probe_sent(self, now: float) -> None:
        """Selection routed a probe here while half-open."""
        if self.state is BreakerState.HALF_OPEN:
            self._probes_issued += 1
            self._last_probe_at = now


class BreakerBoard:
    """All of one instance's breakers, created lazily per backend."""

    def __init__(self, on_transition: Optional[Callable[[str, BreakerState, BreakerState], None]] = None):
        self.on_transition = on_transition
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, backend: str) -> CircuitBreaker:
        brk = self._breakers.get(backend)
        if brk is None:
            listener = None
            if self.on_transition is not None:
                listener = partial(self.on_transition, backend)
            brk = self._breakers[backend] = CircuitBreaker(listener)
        return brk

    def record_success(self, backend: str, now: float) -> None:
        self.breaker(backend).record_success(now)

    def record_failure(self, backend: str, now: float) -> None:
        self.breaker(backend).record_failure(now)

    def allow(self, backend: str, now: float) -> bool:
        brk = self._breakers.get(backend)
        return True if brk is None else brk.allow(now)

    def on_selected(self, backend: str, now: float) -> None:
        brk = self._breakers.get(backend)
        if brk is not None:
            brk.on_probe_sent(now)


class BreakerView:
    """A BackendView that also consults the breaker board.

    ``on_selected`` is the optional hook ``RuleTable.select`` calls after
    a successful pick; it is what meters half-open probe slots.
    """

    def __init__(self, inner: BackendView, board: BreakerBoard,
                 clock: Callable[[], float]):
        self._inner = inner
        self._board = board
        self._clock = clock

    def is_healthy(self, backend: str) -> bool:
        return (self._inner.is_healthy(backend)
                and self._board.allow(backend, self._clock()))

    def load(self, backend: str) -> float:
        return self._inner.load(backend)

    def on_selected(self, backend: str) -> None:
        self._board.on_selected(backend, self._clock())
