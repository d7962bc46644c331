"""The four workloads: what is built, what load runs, what must come out.

Every workload is the same deployment (``lb="yoda"``, 4 instances, 3
TCPStore servers, 3 backends, flat corpus) under a different load, sized
by one number: ``--seconds``, the host seconds the timed section takes on
the commit that added the benchmark.  The *simulated* length of the timed
section is ``seconds * SIM_S_PER_WALL_S`` -- work is fixed, host time is
what varies from commit to commit.

Life of one run (all four): ``build()`` makes the world (1 simulated s of
settle included); ``drive()`` starts the load, runs ``WARMUP_SIM_S`` of
it, then the timed section, then a drain in which every issued fetch
resolves.  The harness schedules its own callback on the loop at the end
of the warm-up: that instant, on the simulated clock, is where set-up
ends and the timed section starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.faults import FaultSpec, apply_fault, crash
from repro.chaos.scenario import Scenario, ScenarioEngine, ScenarioOutcome
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import FetchResult
from repro.obs import OBS
from repro.sim.metrics import all_registries

WARMUP_SIM_S = 5.0
INSTANCES, STORES, BACKENDS = 4, 3, 3
HTTP_TIMEOUT_S = 10.0
BROWSERS = 8  # closed-loop client processes

# Simulated seconds of timed section per ``--seconds``; measured on the
# commit that added the benchmark so that one run takes about ``--seconds``
# of host time (the audited crash run about 1.7x: it must be the same
# simulated length as its unaudited twin).
SIM_S_PER_WALL_S = {
    "conn_churn": 3.0,
    "bulk_tunnel": 4.2,
    "crash_recovery": 4.0,
    "crash_audited": 4.0,
}

# Rolling fault schedule of the crash pair (simulated seconds).  The period
# is what keeps sim_fetch_p99_ms steady from seed to seed: see README.md.
CRASH_PERIOD_S = 3.5
INSTANCE_DOWN_S = 3.0
STORE_CRASH_LAG_S = 0.1
STORE_DOWN_S = 2.0
CRASH_DRAIN_S = 12.0  # a fetch lost to the last crash times out and retries
# The paper's browser retries a failed fetch once on a fresh connection
# (Section 7.2).  An instance crash can lose a mid-handshake flow for good
# (README.md, "Output checks"); with the retry that costs the user a 10 s
# stall, not a broken page, so no operation of the benchmark fails.
CLIENT_RETRIES = 1
CRASH_OBJECT_BYTES = (100_000, 300_000)
CRASH_OBJECT_COUNT = 21


@dataclass
class Outcome:
    """What the load saw in the timed section."""

    issued: int  # fetches started at or after the end of the warm-up
    results: List[FetchResult]  # the ones that resolved, ok or not
    problems: List[str] = field(default_factory=list)  # failed output checks
    digest: str = ""  # packet-schedule SHA-256 (audited run only)
    violations: int = 0  # invariant violations (audited run only)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> List[FetchResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> int:
        """Failed, timed out or never resolved."""
        return self.issued - len(self.ok)


class Workload:
    name = ""
    max_fail_ratio: Optional[float] = None  # None: not a fault-free workload

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.timed_sim_s = seconds * SIM_S_PER_WALL_S[self.name]
        self.bed: Optional[Testbed] = None
        self.timed_from = 0.0  # simulated time the harness marked

    def config(self, object_bytes: int, object_count: int) -> TestbedConfig:
        return TestbedConfig(
            seed=self.seed, lb="yoda", num_lb_instances=INSTANCES,
            num_store_servers=STORES, num_backends=BACKENDS, corpus="flat",
            flat_object_bytes=object_bytes, flat_object_count=object_count)

    def build(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError

    def _check_fetches(self, out: Outcome) -> None:
        site = self.bed.corpus.site
        wrong = [r.path for r in out.ok
                 if len(r.response.body) != site.size_of(r.path)]
        if wrong:
            out.problems.append(
                f"{len(wrong)} fetches returned the wrong byte count "
                f"(first: {wrong[0]})")
        if self.max_fail_ratio is not None and out.issued:
            ratio = out.failed / out.issued
            if ratio > self.max_fail_ratio:
                out.problems.append(
                    f"fetch_fail_ratio {ratio:.4f} > {self.max_fail_ratio} "
                    f"on a fault-free workload")


class ConnChurn(Workload):
    """Open loop, 200 fetches per simulated second of 1 KB objects."""

    name = "conn_churn"
    max_fail_ratio = 0.002
    RATE = 200.0
    DRAIN_S = 2.0

    def build(self) -> None:
        self.bed = Testbed(self.config(1_000, 50))

    def drive(self) -> None:
        self.gen = self.bed.open_loop(self.RATE, http_timeout=HTTP_TIMEOUT_S)
        self.bed.run(WARMUP_SIM_S + self.timed_sim_s)
        self.gen.stop()
        self.bed.run(self.DRAIN_S)

    def outcome(self) -> Outcome:
        gen = self.gen
        results = [r for r in gen.results if r.started_at >= self.timed_from]
        out = Outcome(issued=len(results) + gen.issued - len(gen.results),
                      results=results)
        self._check_fetches(out)
        return out


def _closed_loop_outcome(processes, timed_from: float,
                         load_end: float) -> Outcome:
    """Closed-loop accounting.  A browser that was stopped while a fetch
    was in flight starts no other; one whose last fetch finished before
    the stop had started another that never came back."""
    results = [r for p in processes for r in p.object_results()
               if r.started_at >= timed_from]
    unresolved = sum(
        1 for p in processes
        if not p.results or p.results[-1].finished_at <= load_end)
    out = Outcome(issued=len(results) + unresolved, results=results)
    broken = sum(p.broken_pages for p in processes)
    if broken:
        out.problems.append(f"{broken} broken pages")
    retried = sum(1 for r in results if r.retries_used)
    if retried:
        out.notes.append(f"{retried} fetches needed the client's retry")
    return out


class BulkTunnel(Workload):
    """Closed loop, 8 browser processes fetching 200 KB objects."""

    name = "bulk_tunnel"
    max_fail_ratio = 0.002
    DRAIN_S = 2.0

    def build(self) -> None:
        self.bed = Testbed(self.config(200_000, 20))

    def drive(self) -> None:
        self.processes = self.bed.closed_loop(
            BROWSERS, http_timeout=HTTP_TIMEOUT_S)
        self.bed.run(WARMUP_SIM_S + self.timed_sim_s)
        self.load_end = self.bed.loop.now()
        for proc in self.processes:
            proc.stop()
        self.bed.run(self.DRAIN_S)

    def outcome(self) -> Outcome:
        out = _closed_loop_outcome(self.processes, self.timed_from,
                                   self.load_end)
        self._check_fetches(out)
        return out


def crash_schedule(timed_sim_s: float) -> List[FaultSpec]:
    """Every ``CRASH_PERIOD_S`` the instance serving the most flows
    crashes, and 100 ms later one store replica (round robin) does.  Times
    are relative to load start, as ``Scenario.faults`` wants them; the
    last crash is placed so the instance is back before the load ends."""
    faults: List[FaultSpec] = []
    at, k = WARMUP_SIM_S + 1.0, 0
    while at + INSTANCE_DOWN_S + 1.0 <= WARMUP_SIM_S + timed_sim_s:
        faults.append(crash(at, "lb:serving", duration=INSTANCE_DOWN_S))
        faults.append(crash(at + STORE_CRASH_LAG_S, f"store:{k % STORES}",
                            duration=STORE_DOWN_S))
        at += CRASH_PERIOD_S
        k += 1
    return faults


def crash_scenario(timed_sim_s: float) -> Scenario:
    """The one sizing both crash workloads run."""
    return Scenario(
        name="bench-rolling-crash",
        description="rolling instance + store-replica crashes under "
                    "closed-loop bulk transfers",
        faults=crash_schedule(timed_sim_s),
        duration=WARMUP_SIM_S + timed_sim_s, drain=CRASH_DRAIN_S,
        clients=BROWSERS, http_timeout=HTTP_TIMEOUT_S,
        object_bytes=CRASH_OBJECT_BYTES[0], object_count=CRASH_OBJECT_COUNT,
        num_lb_instances=INSTANCES, num_store_servers=STORES,
        num_backends=BACKENDS)


def spread_object_sizes(bed: Testbed) -> None:
    """Give the flat corpus sizes evenly spaced over 100-300 KB.  The
    sizes do not depend on the seed, so the bytes a run moves do not."""
    site = bed.corpus.site
    paths = site.paths()
    lo, hi = CRASH_OBJECT_BYTES
    for i, path in enumerate(paths):
        site.add(path, lo + (hi - lo) * i // (len(paths) - 1))


class CrashRecovery(Workload):
    """The crash schedule with nothing watching: no monitors, no obs."""

    name = "crash_recovery"

    def build(self) -> None:
        self.scenario = crash_scenario(self.timed_sim_s)
        self.bed = Testbed(self.config(self.scenario.object_bytes,
                                       self.scenario.object_count))
        spread_object_sizes(self.bed)

    def _fire(self, spec: FaultSpec) -> None:
        applied = apply_fault(self.bed, spec)
        if spec.duration is not None and applied.revert is not None:
            self.bed.loop.call_later(spec.duration, applied.revert)

    def drive(self) -> None:
        # the same steps, in the same order, as ScenarioEngine.run()
        s, bed = self.scenario, self.bed
        self.processes = bed.closed_loop(
            s.clients, http_timeout=s.http_timeout, retries=CLIENT_RETRIES)
        for spec in s.faults:
            bed.loop.call_later(spec.at, self._fire, spec)
        bed.run(s.duration)
        self.load_end = bed.loop.now()
        for proc in self.processes:
            proc.stop()
        bed.network.heal()
        bed.run(s.drain)

    def outcome(self) -> Outcome:
        out = _closed_loop_outcome(self.processes, self.timed_from,
                                   self.load_end)
        self._check_fetches(out)
        return out


class _BuiltOnceEngine(ScenarioEngine):
    """The public engine, with the world built ahead of ``run()`` so that
    set-up is timed apart, and the client processes ``run()`` starts given
    their one retry and kept so their fetches can be read."""

    processes: tuple = ()

    def build(self) -> Testbed:
        if self.bed is None:
            bed = super().build()
            spread_object_sizes(bed)
            start = bed.closed_loop

            def closed_loop(*args, **kwargs):
                self.processes = start(*args, retries=CLIENT_RETRIES, **kwargs)
                return self.processes
            bed.closed_loop = closed_loop
        return self.bed


class CrashAudited(Workload):
    """The identical schedule the way the chaos tests run it: through
    ``ScenarioEngine``, invariant monitors on every packet, obs plane on."""

    name = "crash_audited"

    def build(self) -> None:
        OBS.enable()
        self.engine = _BuiltOnceEngine(crash_scenario(self.timed_sim_s),
                                       lb="yoda", seed=self.seed)
        self.bed = self.engine.build()
        self.result: Optional[ScenarioOutcome] = None

    def drive(self) -> None:
        try:
            self.result = self.engine.run()
        finally:
            OBS.disable()

    def outcome(self) -> Outcome:
        out = _closed_loop_outcome(self.engine.processes, self.timed_from,
                                   self.timed_from + self.timed_sim_s)
        self._check_fetches(out)
        out.digest = self.result.trace_digest
        # reported, not enforced: see "Output checks" in README.md
        out.violations = self.result.violation_count
        out.notes += [str(v) for v in self.result.verdicts]
        return out


WORKLOADS = {w.name: w for w in (ConnChurn, BulkTunnel, CrashRecovery,
                                 CrashAudited)}


# ---------------------------------------------------------------- counters --
def program_counters(bed: Testbed) -> Dict[str, float]:
    """Counters the program already keeps, read (never re-counted) at the
    start and at the end of the timed section.  Per-component registries
    are summed by counter name; the network's own registry is kept apart
    because hosts and the fabric both count ``tx_packets``."""
    out: Dict[str, float] = {}
    for registry in all_registries():
        prefix = ("network." if registry is bed.network.metrics
                  else "kv." if registry.name.endswith(".kv") else "")
        for name, counter in registry.counters.items():
            key = prefix + name
            out[key] = out.get(key, 0) + counter.value
    muxes = bed.l4lb.muxes
    out["mux.forwarded"] = sum(m.forwarded for m in muxes)
    out["mux.dropped"] = sum(m.dropped for m in muxes)
    out["http.requests_served"] = sum(
        b.requests_served for b in bed.backends.values())
    out["kvserver.ops"] = sum(
        sum(s.ops.values()) for s in bed.yoda.store_servers)
    out["obs.spans"] = len(OBS.tracer.spans) + OBS.tracer.dropped
    return out
