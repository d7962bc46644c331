"""Connection draining: make-before-break scale-in.

The drain state machine (DESIGN.md section 7):

    ACTIVE --drain_instance()--> DRAINING --flow table empty--> DRAINED
                                    |
                                    +------deadline hit---> FORCED handoff

While DRAINING, the controller keeps the instance out of the mux hash
rings (no new SYNs land on it) but leaves its SNAT range and flow-table
pins intact, so established flows and backend return traffic still reach
it.  The coordinator polls the instance's flow table; when it empties the
instance is removed cleanly and its SNAT range released.  If the deadline
fires first, the instance forgets its local flow state *without deleting
the TCPStore records* and its mux pins are flushed -- the surviving flows
recover on whichever instance the ring re-hashes their next packet to,
which is exactly the failover path the paper already pays for, exercised
deliberately.

The coordinator only schedules events once a drain actually starts, so an
idle qos plane stays invisible to the deterministic packet schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import OBS
from repro.sim.process import PeriodicTask


class DrainState(enum.Enum):
    DRAINING = "draining"
    DRAINED = "drained"  # flow table emptied before the deadline
    FORCED = "forced"  # deadline hit: flows handed off via TCPStore


@dataclass
class DrainStatus:
    """One instance's drain, observable by experiments and tests."""

    name: str
    started_at: float
    deadline_at: float
    flows_at_start: int
    state: DrainState = DrainState.DRAINING
    finished_at: Optional[float] = None
    flows_handed_off: int = 0
    to_spare: bool = False

    @property
    def done(self) -> bool:
        return self.state is not DrainState.DRAINING


class DrainCoordinator:
    """Watches draining instances for the controller."""

    def __init__(self, loop, controller, check_interval: float = 0.25):
        self.loop = loop
        self.controller = controller
        self.drains: Dict[str, DrainStatus] = {}
        self._task = PeriodicTask(loop, check_interval, self._tick)

    def start(self, name: str, deadline: float,
              to_spare: bool = False) -> DrainStatus:
        now = self.loop.now()
        return self.resume(
            name, started_at=now, deadline_at=now + deadline,
            flows_at_start=len(self.controller.instances[name].flows),
            to_spare=to_spare,
        )

    def resume(self, name: str, started_at: float, deadline_at: float,
               flows_at_start: int, to_spare: bool = False) -> DrainStatus:
        """Adopt a drain another controller started (journal replay after
        a leadership change): the deadline is absolute -- the new leader
        finishes the old leader's clock, it does not restart it."""
        status = DrainStatus(
            name=name, started_at=started_at, deadline_at=deadline_at,
            flows_at_start=flows_at_start, to_spare=to_spare,
        )
        self.drains[name] = status
        self._task.start()
        return status

    def halt(self) -> None:
        """Stop polling without resolving anything (the owning controller
        replica died; a successor resumes from the journal)."""
        self._task.stop()

    def _tick(self) -> None:
        # A controller that lost its lease must not finish drains: the
        # finish path pushes mappings and flushes muxes, which its
        # successor (who resumed this drain from the journal) now owns.
        if not self.controller.acting():
            return
        now = self.loop.now()
        for name in list(self.drains):
            status = self.drains[name]
            if status.done:
                continue
            instance = self.controller.instances[name]
            if instance.host.failed:
                # Crashed mid-drain: the monitor already pulled it from the
                # mappings and its local state is gone; flows recover via
                # TCPStore like any crash.  Nothing left to wait for.
                status.flows_handed_off = 0
                self._finish(status, DrainState.FORCED, now, crashed=True)
            elif not instance.flows:
                self._finish(status, DrainState.DRAINED, now)
            elif now >= status.deadline_at:
                status.flows_handed_off = len(instance.flows)
                self._finish(status, DrainState.FORCED, now)
        if all(s.done for s in self.drains.values()):
            self._task.stop()

    def _finish(self, status: DrainStatus, state: DrainState,
                now: float, crashed: bool = False) -> None:
        status.state = state
        status.finished_at = now
        if OBS.enabled:
            OBS.flight("controller", "drain_done",
                       f"{status.name} {state.value} after "
                       f"{now - status.started_at:.3f}s "
                       f"(handed_off={status.flows_handed_off})")
        self.controller._finish_drain(status, crashed=crashed)
