"""The autoscaler actuator: closes the loop through the control plane.

Scale-out adopts provisioned spares (``controller.spares``) first and
falls back to a spawn hook (``YodaService.new_spare_instance``); both
end in ``controller.add_instance``, whose fenced mapping pushes carry
the leader epoch.  Scale-in is make-before-break:
``controller.drain_instance(..., to_spare=True)`` bleeds flows and
returns the instance to the spare pool.  Store-replica scaling adds or
decommissions TCPStore servers through cluster membership, whose epoch
bump wakes every instance's anti-entropy sweeper to re-replicate.

Every decision -- including holds -- is flight-recorded, and the
engine's clocks plus a bounded event ledger ride the controller's
leader journal, so a newly elected leader resumes cooldowns and the
oscillation history instead of re-deciding from amnesia (the in-flight
drain of a scale-in is replayed by the journal's ``draining`` section).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional

from repro.autoscale.decision import ElasticPolicy, PolicyEngine, ScaleDecision
from repro.autoscale.signals import SignalReader, SignalSnapshot
from repro.obs import OBS
from repro.sim.process import PeriodicTask

JOURNALED_EVENTS = 16  # ledger tail carried through the leader journal


@dataclass
class ScaleEvent:
    """One actuated scale event, for the converge invariant and the
    journal."""

    at: float
    kind: str  # "out" | "in" | "store-out" | "store-in"
    count: int
    reason: str
    live_after: int


class Autoscaler:
    """Periodic closed loop bound to one controller replica.

    Under controller HA every replica carries its own (identically
    configured) Autoscaler; the ``acting()`` gate means only the leader's
    ticks actuate, and a takeover restores this engine's clocks from the
    journal before its first tick.
    """

    def __init__(
        self,
        controller,
        policy: Optional[ElasticPolicy] = None,
        *,
        spawn_instance: Optional[Callable[[], object]] = None,
        spawn_store: Optional[Callable[[], object]] = None,
        scraper=None,
        signals: Optional[SignalReader] = None,
    ):
        self.controller = controller
        self.policy = policy or ElasticPolicy()
        self.engine = PolicyEngine(self.policy)
        self.signals = signals or SignalReader(controller, scraper=scraper)
        self.spawn_instance = spawn_instance
        self.spawn_store = spawn_store
        self.events: List[ScaleEvent] = []
        self._elastic_stores: List[str] = []  # stores this engine added
        self._task = PeriodicTask(
            controller.loop, self.policy.check_interval, self.tick
        )

    # ------------------------------------------------------------ lifecycle --
    @property
    def running(self) -> bool:
        return self._task.running

    def start(self) -> "Autoscaler":
        self._task.start()
        return self

    def stop(self) -> None:
        self._task.stop()

    # ----------------------------------------------------------- decisions --
    def tick(self) -> None:
        # the controller's boundary: leader-only, fencing, containment
        self.controller.guarded("autoscale", self._pass)

    def _pass(self) -> None:
        snap = self.signals.collect()
        if snap.live == 0:
            return
        decision = self.engine.decide(snap)
        self._flight(decision, snap)
        if decision.kind == "out":
            self._scale_out(decision, snap)
        elif decision.kind == "in":
            self._scale_in(decision, snap)
        if self.policy.scale_stores:
            self._reconcile_stores(snap)

    def _flight(self, decision: ScaleDecision, snap: SignalSnapshot) -> None:
        # forensics on EVERY decision: a chaos violation's tail shows what
        # the policy saw and why it moved (or refused to)
        if not OBS.enabled:
            return
        OBS.flight(
            "autoscale", f"decide_{decision.kind}",
            f"live={snap.live} cpu={snap.avg_cpu:.2f} "
            f"adm={snap.admission_pressure:.2f} "
            f"lim={snap.limiter_saturation:.2f} n={decision.count} "
            f"[{decision.reason}]",
        )

    # ------------------------------------------------------------- actuate --
    def _record(self, kind: str, count: int, reason: str) -> None:
        live_after = len(self.signals.live_instances())
        self.events.append(ScaleEvent(
            self.controller.loop.now(), kind, count, reason, live_after))

    def _adopt_one(self):
        ctl = self.controller
        if ctl.spares:
            return ctl.spares.pop(0)
        if self.spawn_instance is not None:
            instance = self.spawn_instance()
            # spawn hooks register through add_spare; reclaim it so the
            # adoption below is the only path into the mapping
            if instance in ctl.spares:
                ctl.spares.remove(instance)
            return instance
        return None

    def _scale_out(self, decision: ScaleDecision, snap: SignalSnapshot) -> None:
        ctl = self.controller
        added = 0
        for _ in range(decision.count):
            spare = self._adopt_one()
            if spare is None:
                break
            ctl.add_instance(spare)
            added += 1
        if added:
            ctl.metrics.counter("scaled_up").inc(added)
            self.engine.last_out_at = snap.time
            self._record("out", added, decision.reason)
            if OBS.enabled:
                OBS.flight("autoscale", "scale_out",
                           f"+{added} instance(s) [{decision.reason}]")
            ctl.persist()

    def _scale_in(self, decision: ScaleDecision, snap: SignalSnapshot) -> None:
        ctl = self.controller
        victims = self.signals.live_instances()[-decision.count:]
        for victim in reversed(victims):
            if self.policy.drain:
                ctl.drain_instance(victim.name, deadline=self.policy.drain_deadline,
                                   to_spare=True)
            else:
                ctl.remove_instance(victim.name)
                ctl.spares.append(victim)
        ctl.metrics.counter("scaled_down").inc(len(victims))
        self.engine.last_in_at = snap.time
        self._record("in", len(victims), decision.reason)
        if OBS.enabled:
            OBS.flight("autoscale", "scale_in",
                       f"-{len(victims)} instance(s) [{decision.reason}]")
        ctl.persist()

    # ------------------------------------------------------- store scaling --
    def _reconcile_stores(self, snap: SignalSnapshot) -> None:
        ctl = self.controller
        cluster = ctl.kv_cluster
        if cluster is None:
            return
        p = self.policy
        import math

        target = max(p.min_stores,
                     math.ceil(snap.live / max(1, p.instances_per_store)))
        if p.max_stores > 0:
            target = min(target, p.max_stores)
        current = len(cluster.servers)
        # one membership change per tick: each epoch bump triggers a full
        # anti-entropy pass, so let re-replication settle between moves
        if target > current and self.spawn_store is not None:
            server = self.spawn_store()
            cluster.add(server)
            self._elastic_stores.append(server.name)
            ctl.metrics.counter("stores_scaled_up").inc()
            self._record("store-out", 1, f"target {target} > {current}")
            if OBS.enabled:
                OBS.flight("autoscale", "store_out",
                           f"+{server.name} (epoch {cluster.epoch})")
        elif target < current and self._elastic_stores:
            name = self._elastic_stores.pop()
            ctl.decommission_store(name)
            ctl.metrics.counter("stores_scaled_down").inc()
            self._record("store-in", 1, f"target {target} < {current}")
            if OBS.enabled:
                OBS.flight("autoscale", "store_in",
                           f"-{name} (epoch {cluster.epoch})")

    # ------------------------------------------------------------- journal --
    def journal_state(self) -> dict:
        return {
            "policy": self.engine.journal_state(),
            "elastic_stores": list(self._elastic_stores),
            "event_count": len(self.events),
            "events": [asdict(e) for e in self.events[-JOURNALED_EVENTS:]],
        }

    def restore(self, state: Optional[dict]) -> None:
        """Adopt a previous leader's clocks and ledger tail (takeover).
        The in-flight drain of an interrupted scale-in is resumed by the
        journal's ``draining`` replay, not here."""
        if not state:
            return
        self.engine.restore(state.get("policy") or {})
        self._elastic_stores = list(state.get("elastic_stores") or [])
        self.events = [ScaleEvent(**e) for e in state.get("events") or []]
        self.controller.metrics.counter("autoscale_restores").inc()
        if OBS.enabled:
            OBS.flight("autoscale", "restore",
                       f"adopted {len(self.events)} journaled event(s)")
