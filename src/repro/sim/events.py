"""Discrete-event loop.

The loop is the heart of the simulator: every packet delivery, TCP timer,
health-check ping and controller action is an :class:`Event` scheduled on a
single :class:`EventLoop`.  Determinism matters -- the paper's failure
recovery behaviour depends on exact orderings (e.g. a retransmission racing
a mapping update) -- so ties at the same simulated time are broken by
insertion order, never by hash order or object identity.

Fast-path design (gated by the golden-trace suite, which pins the packet
schedule bit-for-bit):

- The ready queue is a binary heap of ``(time, seq, event)`` tuples, so
  heap sifting compares C-level floats/ints instead of calling
  ``Event.__lt__``; ``seq`` is unique, so the event object is never
  compared and FIFO tie-breaking is exact.
- Cancellation is a lazy-deletion tombstone: ``Event.cancel`` flips a flag
  in O(1) and the loop skips dead entries when they surface.  The loop
  counts tombstones and compacts the heap in place once they outnumber
  live entries, so N schedule/cancel cycles keep the heap O(live events),
  not O(total ever scheduled).
- Far timers (>= :data:`WHEEL_MIN_DELAY` out -- TCP retransmission, KV op
  timeouts, health-check periods) go to a hashed timer wheel: unsorted
  per-slot buckets keyed by ``int(time / granularity)``.  Scheduling is an
  O(1) append and a timer cancelled before its slot is due -- the common
  case for retransmission timers on a healthy network -- is dropped at
  flush time without ever touching the heap.  A bucket is flushed into
  the heap only when the loop needs events at or before its slot's lower
  bound, so cross-structure ordering is exact: every wheel event re-enters
  the heap carrying its original ``(time, seq)`` key.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

# Timer-wheel slot width in simulated seconds.  Packet deliveries inside
# the datacenter (sub-millisecond) stay on the heap; protocol timers
# (hundreds of ms and up) land in the wheel.
WHEEL_GRANULARITY = 0.05
# Only events at least this far in the future are wheeled; nearer events
# would just be flushed again immediately.
WHEEL_MIN_DELAY = 2 * WHEEL_GRANULARITY
# Compact/sweep once tombstones exceed this floor AND outnumber live
# entries -- keeps amortized O(1) cancellation without thrashing tiny
# queues.
_COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled callback.

    Events are created through :meth:`EventLoop.call_at` /
    :meth:`EventLoop.call_later`; user code only ever needs
    :meth:`cancel` and the :attr:`cancelled` / :attr:`fired` flags.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired",
                 "_loop", "_in_wheel")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, loop: Optional["EventLoop"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._loop = loop
        self._in_wheel = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._note_cancel(self)

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.fired)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

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
        # lazy-deletion accounting
        self._heap_dead = 0
        # hashed timer wheel: slot -> unsorted bucket of events
        self._wheel: Dict[int, List[Event]] = {}
        self._slot_heap: List[int] = []  # occupied slots, min-heap
        self._wheel_count = 0  # events currently wheeled (incl. tombstones)
        self._wheel_dead = 0  # cancelled events still in buckets

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        now = self._now
        if not time >= now:  # written so that NaN, which orders nowhere, fails too
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}: not at or after now={now:.6f}"
            )
        time = float(time)
        event = Event(time, next(self._counter), fn, args, self)
        if time - now >= WHEEL_MIN_DELAY:
            if time == inf:
                raise SimulationError("cannot schedule event at t=inf")
            slot = int(time / WHEEL_GRANULARITY)
            if slot * WHEEL_GRANULARITY > time:
                # float rounding pushed the slot's lower bound past the
                # event: demote one slot so slot*granularity <= time holds
                # exactly (the flush ordering invariant depends on it)
                slot -= 1
            bucket = self._wheel.get(slot)
            if bucket is None:
                self._wheel[slot] = bucket = [event]
                heapq.heappush(self._slot_heap, slot)
            else:
                bucket.append(event)
            event._in_wheel = True
            self._wheel_count += 1
        else:
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

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while True:
            self._drop_cancelled()
            top = heap[0][0] if heap else None
            if not self._wheel_count or not self._slot_heap:
                return top
            lower_bound = self._slot_heap[0] * WHEEL_GRANULARITY
            if top is not None and top <= lower_bound:
                return top
            self._flush_wheel_until(lower_bound)

    # -- internals ---------------------------------------------------------
    def _note_cancel(self, event: Event) -> None:
        """Tombstone accounting; compact/sweep when the dead outnumber the
        living (amortized O(1) per cancel)."""
        if event._in_wheel:
            self._wheel_dead += 1
            if (self._wheel_dead > _COMPACT_MIN_DEAD
                    and self._wheel_dead * 2 > self._wheel_count):
                self._sweep_wheel()
        else:
            self._heap_dead += 1
            if (self._heap_dead > _COMPACT_MIN_DEAD
                    and self._heap_dead * 2 > len(self._heap)):
                self._compact_heap()

    def _compact_heap(self) -> None:
        # in place: run() holds a local alias to the same list
        self._heap[:] = [entry for entry in self._heap
                         if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._heap_dead = 0

    def _sweep_wheel(self) -> None:
        wheel = self._wheel
        count = 0
        for slot in list(wheel):
            live = [ev for ev in wheel[slot] if not ev.cancelled]
            if live:
                wheel[slot] = live
                count += len(live)
            else:
                del wheel[slot]
        self._slot_heap[:] = wheel.keys()
        heapq.heapify(self._slot_heap)
        self._wheel_count = count
        self._wheel_dead = 0

    def _flush_wheel_until(self, limit: float) -> None:
        """Move every bucket whose slot lower bound is <= ``limit`` into
        the heap.  Tombstoned events are dropped here, never pushed."""
        heap = self._heap
        slot_heap = self._slot_heap
        wheel = self._wheel
        push = heapq.heappush
        while slot_heap and slot_heap[0] * WHEEL_GRANULARITY <= limit:
            slot = heapq.heappop(slot_heap)
            bucket = wheel.pop(slot, None)
            if bucket is None:
                continue  # stale slot entry
            self._wheel_count -= len(bucket)
            for ev in bucket:
                ev._in_wheel = False
                if ev.cancelled:
                    self._wheel_dead -= 1
                else:
                    push(heap, (ev.time, ev.seq, ev))

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._heap_dead -= 1

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
        slot_heap = self._slot_heap  # only ever mutated in place
        pop = heapq.heappop
        try:
            while not self._stopped:
                # drop dead heads BEFORE deriving the wheel-flush limit: a
                # tombstone at the top would understate it, letting a later
                # heap event fire ahead of earlier still-wheeled events
                while heap and heap[0][2].cancelled:
                    pop(heap)
                    self._heap_dead -= 1
                if self._wheel_count:
                    top = heap[0][0] if heap else inf
                    limit = top if until is None or top < until else until
                    # the wheel is rarely empty and rarely due: test the
                    # flush loop's own entry condition before calling it
                    if slot_heap[0] * WHEEL_GRANULARITY <= limit:
                        self._flush_wheel_until(limit)
                if not heap:
                    if self._wheel_count and until is None:
                        continue  # flushed buckets were all tombstones
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    break
                self._now = t
                # batch: dispatch every event at exactly this tick.  New
                # same-time events scheduled by handlers carry higher seqs,
                # so they surface at the heap top in exact FIFO order;
                # wheeled events can never land at the current tick.
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
        return (len(self._heap) - self._heap_dead
                + self._wheel_count - self._wheel_dead)

    def queue_depth(self) -> int:
        """Total internal entries (live + tombstones) across the heap and
        the timer wheel -- what the O(live events) regression test bounds."""
        return len(self._heap) + self._wheel_count
