"""The observability plane: one process-wide switchboard, ``OBS``.

Hot paths guard every instrumentation hook behind a single attribute load
(``if OBS.enabled:``), so with the plane disabled the per-packet cost is
one branch -- the overhead the ``obs-overhead`` benchmark polices.

The plane is **zero-perturbation by construction**:

- it never schedules events, so enabling it cannot change the order or
  timing of anything on the loop;
- it never draws randomness, so seeded runs stay bit-identical (span IDs
  are plain counters);
- trace contexts ride in ``Packet.meta``, which nothing on the data path
  branches on.

The golden-trace suite runs all seven chaos scenarios with the plane
enabled and asserts the schedule digests are bit-identical to the
disabled run.

Sim time comes from a pluggable clock (``attach_clock``): the Testbed and
the chaos engine attach their event loop's ``now`` when they build, so the
plane can be enabled before any loop exists.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.obs.profiler import SimProfiler
from repro.obs.recorder import FlightRecorderHub
from repro.obs.span import Tracer


class ObsPlane:
    """Process-wide observability switchboard (use the ``OBS`` singleton)."""

    __slots__ = ("enabled", "tracer", "profiler", "recorders", "ctx", "_clock")

    def __init__(self):
        self.enabled = False
        self.tracer = Tracer(self)
        self.profiler = SimProfiler()
        self.recorders = FlightRecorderHub()
        # Ambient context for synchronous attribution: a component sets
        # this around a call that synchronously issues child work (e.g.
        # the Yoda instance around TCPStore writes, so KV-op spans parent
        # to the storage span without threading a ctx argument through
        # every layer).  Single-threaded simulation makes this safe.
        self.ctx: Optional[Tuple[int, int]] = None
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------ control --
    def enable(self, clock: Optional[Callable[[], float]] = None) -> None:
        """Turn the plane on with fresh collectors."""
        self.tracer = Tracer(self)
        self.profiler = SimProfiler()
        self.recorders = FlightRecorderHub()
        self.ctx = None
        if clock is not None:
            self._clock = clock
        self.enabled = True

    def disable(self) -> None:
        """Turn the plane off.  Collected data stays readable until the
        next ``enable()`` resets it."""
        self.enabled = False
        self.ctx = None
        self._clock = None

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Point the plane at a simulation clock (an ``EventLoop.now``)."""
        self._clock = clock

    def now(self) -> float:
        clock = self._clock
        return clock() if clock is not None else 0.0

    # -------------------------------------------------------- conveniences --
    def flight(self, component: str, kind: str, detail: str) -> None:
        """Note an event into ``component``'s flight-recorder ring."""
        self.recorders.note(self.now(), component, kind, detail)


OBS = ObsPlane()
