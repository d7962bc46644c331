"""Discrete-event loop.

The loop is the heart of the simulator: every packet delivery, TCP timer,
health-check ping and controller action is an :class:`Event` scheduled on a
single :class:`EventLoop`.  Determinism matters -- the paper's failure
recovery behaviour depends on exact orderings (e.g. a retransmission racing
a mapping update) -- so ties at the same simulated time are broken by
insertion order, never by hash order or object identity.

Fast-path design (gated by the golden-trace suite, which pins the packet
schedule bit-for-bit):

- The ready queue is one binary heap of ``(time, seq, event)`` tuples, so
  heap sifting compares C-level floats/ints; ``seq`` is unique, so the
  event object is never compared and FIFO tie-breaking is exact.
- Cancellation is a lazy-deletion tombstone: ``Event.cancel`` flips a flag
  in O(1) and the loop skips dead entries when they surface.  The loop
  counts tombstones and compacts the heap in place once they outnumber
  live entries, so N schedule/cancel cycles keep the heap O(live events),
  not O(total ever scheduled).  Far timers that are re-armed rather than
  cancelled (TCP retransmission, KV op timeouts) are
  :class:`repro.sim.process.Timer` deadline timers, which leave one event
  in the heap however often they are pushed out.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

# Compact once tombstones exceed this floor AND outnumber live entries --
# keeps amortized O(1) cancellation without thrashing tiny queues.
_COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled callback.

    Events are created through :meth:`EventLoop.call_at` /
    :meth:`EventLoop.call_later`; user code only ever needs
    :meth:`cancel` and the :attr:`cancelled` / :attr:`fired` flags.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_loop")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, loop: "EventLoop"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._loop._note_cancel()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class EventLoop:
    """A deterministic discrete-event scheduler.

    >>> loop = EventLoop()
    >>> order = []
    >>> _ = loop.call_later(1.0, order.append, "b")
    >>> _ = loop.call_later(0.5, order.append, "a")
    >>> loop.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # ready queue: (time, seq, Event) tuples
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        # cancelled entries still in the heap
        self._heap_dead = 0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        now = self._now
        # written so that NaN, which orders nowhere, fails too
        if not now <= time < inf:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}: not finite and at "
                f"or after now={now:.6f}"
            )
        time = float(time)
        event = Event(time, next(self._counter), fn, args, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after already-queued
        same-time events)."""
        return self.call_at(self._now, fn, *args)

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True

    # -- internals ---------------------------------------------------------
    def _note_cancel(self) -> None:
        """Tombstone accounting; compact when the dead outnumber the living
        (amortized O(1) per cancel)."""
        self._heap_dead += 1
        if (self._heap_dead > _COMPACT_MIN_DEAD
                and self._heap_dead * 2 > len(self._heap)):
            # in place: run() holds a local alias to the same list
            self._heap[:] = [entry for entry in self._heap
                             if not entry[2].cancelled]
            heapq.heapify(self._heap)
            self._heap_dead = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in order.

        Args:
            until: if given, stop once the next event would be strictly after
                this time, and advance the clock to ``until``.
            max_events: safety valve; raise if more events than this fire.

        Returns:
            The number of events that fired.
        """
        if self._running:
            raise SimulationError("EventLoop.run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while not self._stopped:
                # drop dead heads first, so the clock never advances to
                # the time of an event that will not fire
                while heap and heap[0][2].cancelled:
                    pop(heap)
                    self._heap_dead -= 1
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    break
                self._now = t
                # batch: dispatch every event at exactly this tick.  New
                # same-time events scheduled by handlers carry higher seqs,
                # so they surface at the heap top in exact FIFO order.
                while heap and heap[0][0] == t:
                    event = pop(heap)[2]
                    if event.cancelled:
                        self._heap_dead -= 1
                        continue
                    event.fired = True
                    event.fn(*event.args)
                    fired += 1
                    if max_events is not None and fired >= max_events:
                        raise SimulationError(
                            f"event budget exhausted: {fired} events fired "
                            f"(possible scheduling loop)"
                        )
                    if self._stopped:
                        break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return fired

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run(until=self._now + duration, max_events=max_events)

    def pending_count(self) -> int:
        """Number of pending (non-cancelled) events in the queue."""
        return len(self._heap) - self._heap_dead
