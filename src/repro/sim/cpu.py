"""CPU cost/queueing model for simulated servers.

The paper's performance results are about where CPUs saturate (a YODA
instance at 12K req/s, a Memcached server at 80K req/s) and what latency
work experiences on the way.  :class:`CpuModel` is a single logical queue:
each unit of work costs some CPU seconds, runs after everything queued
before it, and utilization is the busy fraction of wall-clock time.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs import OBS
from repro.sim.events import EventLoop


class CpuModel:
    """A work-conserving single-queue CPU with utilization accounting.

    ``owner`` names the component for the sim-time profiler; each
    ``execute`` may carry a ``phase`` tag, so enabled observability can
    attribute simulated CPU seconds per (component, phase).
    """

    def __init__(self, loop: EventLoop, owner: str = ""):
        self.loop = loop
        self.owner = owner
        self.slowdown = 1.0  # gray-failure multiplier on per-item cost
        self._busy_until = 0.0
        self._busy_accum = 0.0  # total busy seconds ever scheduled
        self._window_start = 0.0
        self._window_busy_marker = 0.0

    def execute(self, cost: float, fn: Optional[Callable[..., Any]] = None,
                *args: Any, phase: str = "") -> float:
        """Queue work costing ``cost`` CPU-seconds; run ``fn`` at completion.

        Returns the completion time.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        now = self.loop.now()
        service = cost * self.slowdown
        finish = max(now, self._busy_until) + service
        self._busy_until = finish
        self._busy_accum += service
        if OBS.enabled:
            OBS.profiler.add(self.owner or "cpu", phase or "work", service)
        if fn is not None:
            self.loop.call_later(finish - now, fn, *args)
        return finish

    def set_slowdown(self, factor: float) -> None:
        """Gray failure: every unit of work costs ``factor``x as much CPU.

        The host stays up and answers probes, it is just slow -- the
        failure mode health checks are worst at catching.  ``1.0``
        restores normal speed; already-queued work is unaffected.
        """
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        self.slowdown = factor

    def queue_delay(self) -> float:
        """How long newly arriving work would wait before starting."""
        return max(0.0, self._busy_until - self.loop.now())

    @property
    def busy_seconds(self) -> float:
        """Busy seconds actually elapsed (not counting queued future work)."""
        return self._busy_accum - max(0.0, self._busy_until - self.loop.now())

    def utilization_window(self) -> float:
        """Busy fraction since the last call to :meth:`reset_window`."""
        now = self.loop.now()
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        busy = self.busy_seconds - self._window_busy_marker
        return min(1.0, max(0.0, busy / elapsed))

    def reset_window(self) -> None:
        self._window_start = self.loop.now()
        self._window_busy_marker = self.busy_seconds
