"""Per-component flight recorders: bounded last-N-events rings.

Every component worth debugging (a Yoda instance, the KV client of a host,
the L4 mux, the chaos engine itself) gets a ring of its most recent notable
events -- routing decisions, KV timeouts, dropped packets, fault
injections.  The ring is bounded, so recording costs O(1) and an
always-on recorder cannot grow a long run's memory.

The payoff is forensics: when a chaos invariant monitor fires, it dumps the
offending components' rings into the violation report, turning "invariant
violated at t=12.4" into the last N things that actually happened around
the failure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

RING_CAPACITY = 256

# (time, kind, detail)
FlightEvent = Tuple[float, str, str]


class FlightRecorder:
    """One component's bounded event ring."""

    __slots__ = ("component", "ring", "total")

    def __init__(self, component: str):
        self.component = component
        self.ring: Deque[FlightEvent] = deque(maxlen=RING_CAPACITY)
        self.total = 0  # events ever noted, including ones the ring evicted

    def note(self, time: float, kind: str, detail: str) -> None:
        self.ring.append((time, kind, detail))
        self.total += 1

    def events(self, last: Optional[int] = None) -> List[FlightEvent]:
        out = list(self.ring)
        if last is not None:
            out = out[-last:]
        return out

    def dump(self, last: Optional[int] = None) -> List[str]:
        return [
            f"{t:10.6f} [{self.component}] {kind}: {detail}"
            for t, kind, detail in self.events(last)
        ]

    def __len__(self) -> int:
        return len(self.ring)


class FlightRecorderHub:
    """All component rings, keyed by component name."""

    def __init__(self):
        self._recorders: Dict[str, FlightRecorder] = {}

    def recorder(self, component: str) -> FlightRecorder:
        rec = self._recorders.get(component)
        if rec is None:
            rec = self._recorders[component] = FlightRecorder(component)
        return rec

    def note(self, time: float, component: str, kind: str, detail: str) -> None:
        self.recorder(component).note(time, kind, detail)

    def components(self) -> List[str]:
        return sorted(self._recorders)

    def dump(self, component: str, last: Optional[int] = None) -> List[str]:
        rec = self._recorders.get(component)
        return rec.dump(last) if rec is not None else []

    def dump_tail(self, last: int = 20) -> List[str]:
        """The most recent ``last`` events across components, merged and
        time-ordered -- the default forensic snapshot."""
        merged: List[Tuple[float, str, str, str]] = []
        for name, rec in self._recorders.items():
            for t, kind, detail in rec.ring:
                merged.append((t, name, kind, detail))
        merged.sort(key=lambda e: e[0])
        return [
            f"{t:10.6f} [{name}] {kind}: {detail}"
            for t, name, kind, detail in merged[-last:]
        ]
