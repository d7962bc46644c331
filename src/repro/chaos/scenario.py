"""The scenario engine: compile a fault timeline onto the event loop.

A :class:`Scenario` is declarative data -- workload sizing plus a list of
:class:`FaultSpec` entries with times relative to load start.  The engine
builds a :class:`Testbed`, attaches the invariant suite (one flow table
and every invariant that applies) and starts the network's run digest,
starts closed-loop clients, schedules every fault, runs the load phase,
then heals all outstanding faults and drains so every admitted flow can
reach its terminal state before the invariants are finalized.

Determinism: with the same seed, the whole run -- fault resolution
included -- replays identically, which :meth:`ScenarioOutcome.trace_digest`
witnesses as a SHA-256 over the packet schedule.

``run_contrast`` runs the same scenario against YODA and the HAProxy
baseline, preserving the paper's Figure 12 contrast: YODA must come out
clean while HAProxy demonstrably breaks flows under the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.chaos.faults import AppliedFault, FaultSpec, apply_fault
from repro.chaos.invariants import (
    FlowAuditTable,
    Invariant,
    RunEnd,
    Verdict,
    attach_suite,
)
from repro.core.service import YodaServiceConfig
from repro.errors import ConfigError
from repro.experiments.harness import Testbed, TestbedConfig

# the long-lived streaming downloads a scenario may ride alongside its
# page workload (``Scenario.streams`` of them)
STREAM_CHUNK_BYTES = 1_000
STREAM_MAX_STALLS = 8  # probes before a stream gives up


@dataclass
class Scenario:
    """A named, self-contained chaos experiment."""

    name: str
    description: str
    faults: List[FaultSpec] = field(default_factory=list)
    duration: float = 12.0  # load phase (seconds, after testbed settle)
    drain: float = 8.0  # quiesce window before invariants are finalized
    clients: int = 4
    http_timeout: float = 10.0
    client_one_way_latency: float = 0.030  # higher = slower, longer-lived flows
    object_bytes: int = 300_000
    object_count: int = 6
    num_lb_instances: int = 4
    num_store_servers: int = 3
    num_backends: int = 3
    # the yoda tier's planes (qos, stateless, region, controller HA,
    # autoscale, cost model); the HAProxy leg of a contrast runs without
    yoda: YodaServiceConfig = field(default_factory=YodaServiceConfig)
    # long-lived streaming downloads riding alongside the page workload;
    # the region-failover invariant audits the ones established pre-kill
    streams: int = 0
    stream_chunks: int = 60

    def timeline(self) -> List[str]:
        return [spec.describe() for spec in sorted(self.faults, key=lambda s: s.at)]


@dataclass
class ScenarioOutcome:
    """Everything a scenario run produced."""

    scenario: str
    lb: str
    seed: int
    verdicts: List[Verdict]
    pages_loaded: int
    broken_pages: int
    trace_digest: str
    applied: List[str] = field(default_factory=list)  # resolved fault targets
    repair: bool = True  # store self-healing enabled for this run
    replication: bool = True  # cross-site shipping enabled for this run
    streams_completed: int = 0
    streams_broken: int = 0
    failed_over: bool = False  # controller promoted the standby region
    records_lost: int = 0  # store records that never reached the standby
    stateless: bool = False  # compact stateless dispatch was enabled
    scale_events: int = 0  # autoscaler events actuated during the run

    @property
    def invariants_ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def violation_count(self) -> int:
        return sum(v.violation_count for v in self.verdicts)

    @property
    def ok(self) -> bool:
        """Zero invariant violations AND zero client-visible breakage."""
        served = self.pages_loaded + self.streams_completed > 0
        return (self.invariants_ok and self.broken_pages == 0
                and self.streams_broken == 0 and served)

    def render(self) -> str:
        lines = [
            f"scenario {self.scenario} [{self.lb}] seed={self.seed}"
            f"{'' if self.repair else ' (repair OFF)'}"
            f"{'' if self.replication else ' (replication OFF)'}"
            f"{' (stateless dispatch)' if self.stateless else ''}: "
            f"{'PASS' if self.ok else 'BROKEN'}",
            f"  pages: {self.pages_loaded} loaded, {self.broken_pages} broken",
        ]
        if self.scale_events:
            lines.append(f"  scale events: {self.scale_events}")
        if self.streams_completed or self.streams_broken:
            lines.append(
                f"  streams: {self.streams_completed} completed, "
                f"{self.streams_broken} broken"
                + (f"; failed over, {self.records_lost} records lost"
                   if self.failed_over else "")
            )
        for verdict in self.verdicts:
            lines.append(f"  {verdict}")
            for violation in verdict.violations[:3]:
                lines.append(f"    {violation}")
        lines.append(f"  trace digest: {self.trace_digest[:16]}")
        return "\n".join(lines)


class ScenarioEngine:
    """Run one scenario against one LB implementation."""

    def __init__(self, scenario: Scenario, lb: str = "yoda", seed: int = 2016,
                 repair: bool = True, replication: Optional[bool] = None,
                 taps: Optional[List] = None):
        self.scenario = scenario
        self.lb = lb
        self.seed = seed
        self.repair = repair
        # None = the scenario's own setting; False = the cross-site
        # replication ablation (--no-replication)
        region = scenario.yoda.region
        self.replication = (replication if replication is not None
                            else region is None or region.replication)
        # extra packet-trace taps (objects with a ``record(rec)`` method)
        # attached alongside the invariants' flow table -- the golden-trace
        # suite uses this to capture the full packet schedule
        self.taps: List = list(taps or [])
        self.applied: List[AppliedFault] = []
        self.bed: Optional[Testbed] = None
        self.table: Optional[FlowAuditTable] = None
        self.invariants: List[Invariant] = []
        self.fleet = None  # StreamingFleet when the scenario has streams
        self._region_kill_time: Optional[float] = None

    def build(self) -> Testbed:
        """Build the world this engine runs -- once: a second call (``run``
        makes one) returns the same bed, so whatever a caller attached to
        it after building is still attached when the run starts."""
        if self.bed is not None:
            return self.bed
        s = self.scenario
        yoda = None
        if self.lb == "yoda":
            # the run's ablation switches, on a copy of the scenario's tier
            yoda = replace(s.yoda, self_healing=self.repair)
            if yoda.region is not None:
                yoda.region = replace(yoda.region,
                                      replication=self.replication)
        elif s.yoda.region is not None:
            # the baseline leg sheds the yoda-only planes, but a region's
            # faults name a site that would not exist
            raise ConfigError("multi-region is a yoda-only feature")
        self.bed = Testbed(TestbedConfig(
            seed=self.seed,
            lb=self.lb,
            num_lb_instances=s.num_lb_instances,
            num_store_servers=s.num_store_servers,
            num_backends=s.num_backends,
            client_one_way_latency=s.client_one_way_latency,
            corpus="flat",
            flat_object_bytes=s.object_bytes,
            flat_object_count=s.object_count,
            yoda=yoda,
        ))
        self.table, self.invariants = attach_suite(
            self.bed, streams=s.streams > 0)
        self.bed.network.start_digest()
        for tap in self.taps:
            self.bed.network.add_trace(tap)
        return self.bed

    def run(self) -> ScenarioOutcome:
        bed = self.build()
        s = self.scenario
        processes = bed.closed_loop(s.clients, http_timeout=s.http_timeout)
        if s.streams > 0:
            self.fleet = bed.streaming(
                s.streams, chunks=s.stream_chunks,
                chunk_bytes=STREAM_CHUNK_BYTES, start_at=0.2,
                max_stalls=STREAM_MAX_STALLS,
            )
        for spec in s.faults:
            bed.loop.call_later(spec.at, self._fire, spec)
        bed.run(s.duration)
        load_end = bed.loop.now()
        for proc in processes:
            proc.stop()
        self._heal_all()
        bed.run(s.drain)
        end = RunEnd(
            load_end=load_end,
            crashed=[a.target_name for a in self.applied
                     if a.spec.kind in ("crash", "flap") and a.target_name],
            stream_clients=self.fleet.clients if self.fleet is not None else (),
            region_kill_time=self._region_kill_time,
        )
        verdicts = [invariant.finalize(end) for invariant in self.invariants]
        controller = bed.yoda.controller if bed.yoda is not None else None
        return ScenarioOutcome(
            scenario=s.name,
            lb=self.lb,
            seed=self.seed,
            verdicts=verdicts,
            pages_loaded=sum(p.pages_loaded for p in processes),
            broken_pages=sum(p.broken_pages for p in processes),
            trace_digest=bed.network.digest(),
            applied=[
                f"{a.spec.kind}:{a.target_name}" for a in self.applied
                if a.target_name
            ],
            repair=self.repair,
            replication=self.replication,
            streams_completed=(self.fleet.completed()
                               if self.fleet is not None else 0),
            streams_broken=(self.fleet.broken() + self.fleet.unfinished()
                            if self.fleet is not None else 0),
            failed_over=(controller is not None
                         and controller.region.failed_over),
            records_lost=(controller.region.failover_records_lost
                          if controller is not None else 0),
            stateless=(bed.yoda is not None
                       and bed.yoda.config.stateless_enabled),
            scale_events=sum(len(a.events) for a in (
                bed.yoda.autoscalers if bed.yoda is not None else ())),
        )

    def _fire(self, spec: FaultSpec) -> None:
        applied = apply_fault(self.bed, spec)
        self.applied.append(applied)
        if spec.kind == "region_kill":
            self._region_kill_time = self.bed.loop.now()
        if spec.duration is not None and applied.revert is not None:
            revert, applied.revert = applied.revert, None
            self.bed.loop.call_later(spec.duration, revert)

    def _heal_all(self) -> None:
        """End of load phase: undo every *environmental* fault still in
        force (network, CPU, probes) so the drain window measures
        recovery, not steady-state faults.  Crashes without a duration
        are permanent -- a dead VM stays dead, which is exactly what the
        YODA-vs-HAProxy contrast hinges on."""
        for applied in self.applied:
            if (applied.revert is not None
                    and applied.spec.kind not in ("crash", "controller_kill")):
                applied.revert()
                applied.revert = None
        self.bed.network.heal()


def run_scenario(scenario: Scenario, lb: str = "yoda",
                 seed: int = 2016, repair: bool = True,
                 replication: Optional[bool] = None) -> ScenarioOutcome:
    return ScenarioEngine(scenario, lb=lb, seed=seed, repair=repair,
                          replication=replication).run()


def run_contrast(scenario: Scenario, seed: int = 2016,
                 repair: bool = True) -> Dict[str, ScenarioOutcome]:
    """The Figure 12 contrast: same schedule, both LB tiers.  Multi-region
    and autoscale scenarios are YODA-only (HAProxy keeps no external flow
    state to replicate and no elastic control loop), so those skip the
    baseline leg."""
    out = {"yoda": run_scenario(scenario, lb="yoda", seed=seed, repair=repair)}
    if scenario.yoda.region is None and scenario.yoda.autoscale is None:
        out["haproxy"] = run_scenario(scenario, lb="haproxy", seed=seed)
    return out
