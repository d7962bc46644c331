"""Figure 12: maintaining flows through LB instance failures.

(a) Fail 2 of the L7 LB instances under a closed-loop browser workload
    (paper: 20 processes, 30 s HTTP timeout, retry 0 or 1) and compare:
    - HAProxy-noretry: ~24% of flows break (every request in flight on the
      failed instances);
    - HAProxy-retry: nothing breaks but affected requests pay the full
      30 s HTTP timeout before retrying on a fresh connection;
    - YODA: nothing breaks and nothing retries; affected flows stall only
      for the retransmission + failover window (paper: +0.6-3 s).

(b) A packet trace at a backend server for one flow crossing the failure:
    drop at the dead instance, server RTOs (300 ms then backed off), the
    L4 mapping update within the 600 ms monitor period, then a surviving
    instance recovers the flow from TCPStore and forwarding resumes --
    with no client HTTP re-request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.stats import median, percentile
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig
from repro.http.client import FetchResult
from repro.sim.tracing import endpoint_on_host

HTTP_TIMEOUT = 30.0  # the browsers' per-object timeout
FAIL_AFTER = 0.35  # Fig. 12(b): seconds into the fetch the instance fails


@dataclass
class ScenarioOutcome:
    name: str
    results: List[FetchResult]
    failed_instances: List[str]
    recovered_flows: int
    fail_time: float = 0.0

    def in_flight_at_failure(self) -> List[FetchResult]:
        return [r for r in self.results
                if r.started_at <= self.fail_time <= r.finished_at]

    @property
    def broken_of_in_flight(self) -> float:
        active = self.in_flight_at_failure()
        if not active:
            return 0.0
        return sum(1 for r in active if not r.ok) / len(active)

    @property
    def broken(self) -> List[FetchResult]:
        return [r for r in self.results if not r.ok]

    @property
    def broken_fraction(self) -> float:
        if not self.results:
            return 0.0
        return len(self.broken) / len(self.results)

    @property
    def retried(self) -> int:
        return sum(1 for r in self.results if r.retries_used)


def run_scenario(
    lb: str,
    retries: int,
    seed: int = 2016,
    num_instances: int = 10,
    processes: int = 8,
    fail_count: int = 2,
    fail_at: float = 8.0,
    duration: float = 50.0,
) -> ScenarioOutcome:
    bed = Testbed(TestbedConfig(
        seed=seed, lb=lb, num_lb_instances=num_instances,
        num_store_servers=3, num_backends=6, corpus="university",
        num_pages=40,
    ))
    procs = bed.closed_loop(processes, http_timeout=HTTP_TIMEOUT,
                            retries=retries)
    bed.run(fail_at)
    victims = bed.fail_lb_instances(fail_count)
    t_fail = bed.loop.now()
    bed.run(duration - fail_at)
    for proc in procs:
        proc.stop()
    bed.run(HTTP_TIMEOUT + 5.0)  # let stragglers time out / finish
    results = [fr for proc in procs for fr in proc.object_results()]
    recovered = 0
    if bed.yoda is not None:
        for inst in bed.yoda.instances:
            counter = inst.metrics.counters.get("flows_recovered")
            if counter:
                recovered += counter.value
    return ScenarioOutcome(
        name=f"{lb}-{'retry' if retries else 'noretry'}",
        results=results, failed_instances=victims, recovered_flows=recovered,
        fail_time=t_fail,
    )


def run(
    seed: int = 2016,
    processes: int = 8,
    num_instances: int = 10,
    fail_count: int = 2,
    duration: float = 45.0,
    fail_at: float = 8.0,
) -> ExperimentResult:
    result = ExperimentResult(name="Figure 12(a): failure recovery")
    scenarios = [
        ("haproxy", 0), ("haproxy", 1), ("yoda", 0), ("yoda", 1),
    ]
    outcomes: Dict[str, ScenarioOutcome] = {}
    for lb, retries in scenarios:
        outcome = run_scenario(
            lb, retries, seed=seed, num_instances=num_instances,
            processes=processes, fail_count=fail_count,
            duration=duration, fail_at=fail_at,
        )
        outcomes[outcome.name] = outcome
        lat = [r.latency for r in outcome.results]
        result.rows.append({
            "scenario": outcome.name,
            "requests": len(outcome.results),
            "broken_pct": round(outcome.broken_fraction * 100, 2),
            "broken_of_in_flight_pct": round(outcome.broken_of_in_flight * 100, 1),
            "retried": outcome.retried,
            "p50_s": round(median(lat), 3) if lat else None,
            "p99_s": round(percentile(lat, 99), 3) if lat else None,
            "max_s": round(max(lat), 3) if lat else None,
            "recovered_flows": outcome.recovered_flows,
        })
    result.summary = {
        "paper": ("HAProxy-noretry breaks 24% of in-flight flows; "
                  "YODA breaks none, +0.6-3 s on affected flows; "
                  "HAProxy-retry adds 30 s"),
        "yoda_broken": outcomes["yoda-noretry"].broken_fraction,
        "haproxy_broken": outcomes["haproxy-noretry"].broken_fraction,
    }
    result.notes = (
        "Broken% is over all requests in the run, so its magnitude scales "
        "with run length; the paper's 24% counts flows live at failure "
        "time.  The claims under test: haproxy-noretry > 0, yoda == 0, "
        "haproxy-retry == 0 but with ~30 s latency outliers."
    )
    return result


@dataclass
class TimelineEvent:
    time: float
    what: str


def run_timeline(
    seed: int = 42,
    object_bytes: int = 2_000_000,
) -> ExperimentResult:
    """Figure 12(b): per-packet view of one recovered flow, captured at the
    backend like the paper's tcpdump."""
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=4, num_store_servers=3,
        num_backends=1, corpus="flat", flat_object_bytes=object_bytes,
        flat_object_count=1, client_jitter=0.0, trace_packets=True,
    ))
    results: List[FetchResult] = []
    from repro.http.client import BrowserClient

    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
    start = bed.loop.now()
    browser.fetch("/obj/0.bin", results.append)
    fail_time = {}

    def fail_serving() -> None:
        for inst in bed.yoda.instances:
            if inst.flows:
                fail_time["t"] = bed.loop.now()
                inst.fail()
                return

    bed.loop.call_later(FAIL_AFTER, fail_serving)
    bed.run(60.0)

    assert results, "fetch never completed"
    fetch = results[0]
    events: List[TimelineEvent] = []
    t_fail = fail_time.get("t", start + FAIL_AFTER)
    events.append(TimelineEvent(0.0, "instance fails (all local state lost)"))
    backend = next(iter(bed.backends.values()))
    retrans = [
        r for r in bed.trace.retransmissions()
        if r.time > t_fail and endpoint_on_host(r.src, backend.ip)
    ]
    for r in retrans[:4]:
        events.append(TimelineEvent(
            r.time - t_fail, f"server RTO retransmission (seq={r.seq})"
        ))
    recovered_at = None
    for inst in bed.yoda.instances:
        counter = inst.metrics.counters.get("flows_recovered")
        if counter and counter.value:
            recovered_at = inst.name
    result = ExperimentResult(name="Figure 12(b): recovery packet timeline")
    for ev in events:
        result.rows.append({"t_after_failure_s": round(ev.time, 3),
                            "event": ev.what})
    result.rows.append({
        "t_after_failure_s": round(fetch.finished_at - t_fail, 3),
        "event": f"transfer completes (recovered by {recovered_at}, "
                 f"no HTTP re-request, broken={not fetch.ok})",
    })
    result.summary = {
        "flow_broken": not fetch.ok,
        "total_latency_s": round(fetch.latency, 3),
        "first_rto_s": round(retrans[0].time - t_fail, 3) if retrans else None,
        "paper": "RTOs at ~0.3 s; mapping updated within 0.6 s; no timeout",
    }
    return result
