"""Flash crowd: goodput with and without the overload-control plane.

Not a paper figure -- the paper's YODA handles *failures* gracefully but
says nothing about *overload*.  This experiment shows why the qos plane
(repro.qos) earns its place: a crowd of untrusted clients offers several
times the deployment's CPU capacity while a steady tier-0 workload runs
underneath.  With qos, per-VIP token-bucket admission sheds the crowd at
SYN time (tier floors keep tier-0 admitted) and the tier-0 goodput stays
within ~10% of its offered rate; without qos every SYN is accepted, the
instance CPUs saturate, queues build, and *everyone's* requests time out
-- the classic congestion-collapse ablation.

After the crowd leaves, one instance is drained for scale-in
(make-before-break): new SYNs route elsewhere, in-flight requests finish,
and the run asserts zero tier-0 failures during the drain window.

Same scaling trick as Figure 13: request rates are ~SCALE x smaller than
a real deployment with per-packet CPU cost scaled up by SCALE, so the
utilization trajectory is preserved while the simulation stays small.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import percentile
from repro.core import YodaCostModel, YodaServiceConfig
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig
from repro.net.host import Host
from repro.qos.config import QosConfig
from repro.tcp.endpoint import TcpStack
from repro.workload.clients import OpenLoopGenerator

SCALE = 100.0

# the tier the surge clients land in (see QosConfig.client_tiers below)
CROWD_PREFIX = "172.16.9."


def default_qos(admission_rate: float = 70.0,
                admission_burst: float = 30.0) -> QosConfig:
    """The experiment's qos policy: per-instance admission with the crowd
    in tier 2 (shed first -- only admitted while the bucket is >60%)."""
    return QosConfig(
        admission_rate=admission_rate,
        admission_burst=admission_burst,
        tier_floors=(0.0, 0.0, 0.6),
        client_tiers=((CROWD_PREFIX, 2),),
    )


def run(
    seed: int = 2016,
    qos: bool = True,
    num_instances: int = 3,
    legit_rate: float = 120.0,
    surge_rate: float = 600.0,
    surge_at: float = 4.0,
    surge_duration: float = 6.0,
    drain_at: float = 12.0,
    duration: float = 16.0,
    http_timeout: float = 5.0,
    admission_rate: float = 70.0,
) -> ExperimentResult:
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=num_instances,
        num_store_servers=3, num_backends=3, corpus="flat",
        flat_object_bytes=10_000,
        yoda=YodaServiceConfig(
            cost_model=YodaCostModel().scaled(SCALE),
            qos=default_qos(admission_rate) if qos else None),
    ))

    t_start = bed.loop.now()
    legit_events: List[Dict[str, float]] = []
    crowd_events: List[Dict[str, float]] = []

    def record(bucket: List[Dict[str, float]]):
        def on_result(result) -> None:
            bucket.append({
                "t": bed.loop.now() - t_start,
                "ok": 1.0 if result.ok else 0.0,
                "latency": result.latency,
            })
        return on_result

    legit = bed.open_loop(rate=legit_rate, http_timeout=http_timeout)
    legit.on_result = record(legit_events)

    crowd_host = bed.network.attach(
        Host("crowd-client", [f"{CROWD_PREFIX}1"], site="internet")
    )
    crowd = OpenLoopGenerator(
        TcpStack(crowd_host, bed.loop), bed.loop, bed.target(), surge_rate,
        path_fn=bed.website.random_object, http_timeout=http_timeout,
        on_result=record(crowd_events),
    )
    bed.loop.call_later(surge_at, crowd.start)
    bed.loop.call_later(surge_at + surge_duration, crowd.stop)

    drained = {"name": None}

    def start_drain() -> None:
        victim = bed.yoda.instances[0].name
        drained["name"] = victim
        bed.yoda.controller.drain_instance(victim)

    bed.loop.call_later(drain_at, start_drain)
    bed.run(duration)
    legit.stop()
    bed.run(http_timeout + 1.0)  # let stragglers resolve, drain finish

    # ---------------------------------------------------------------- rows --
    rows: List[Dict[str, object]] = []
    for second in range(int(duration)):
        lo, hi = float(second), float(second + 1)
        lw = [e for e in legit_events if lo <= e["t"] < hi]
        cw = [e for e in crowd_events if lo <= e["t"] < hi]
        rows.append({
            "t_s": second,
            "legit_ok_s": sum(1 for e in lw if e["ok"]),
            "legit_fail_s": sum(1 for e in lw if not e["ok"]),
            "crowd_ok_s": sum(1 for e in cw if e["ok"]),
            "crowd_fail_s": sum(1 for e in cw if not e["ok"]),
        })

    # ------------------------------------------------------------- summary --
    surge_end = surge_at + surge_duration
    in_surge = [e for e in legit_events if surge_at + 1 <= e["t"] < surge_end]
    surge_ok = sum(1 for e in in_surge if e["ok"])
    surge_window = surge_duration - 1
    goodput_ratio = (surge_ok / surge_window / legit_rate) if in_surge else 0.0
    in_drain = [e for e in legit_events if e["t"] >= drain_at]
    drain_failures = sum(1 for e in in_drain if not e["ok"])
    legit_lat = [e["latency"] for e in legit_events if e["ok"]]

    sheds = 0
    breaker_opens = 0
    for inst in bed.yoda.instances:
        counters = inst.metrics.counters
        sheds += sum(c.value for name, c in counters.items()
                     if name.startswith("qos_shed"))
        if "qos_breaker_opens" in counters:
            breaker_opens += counters["qos_breaker_opens"].value
    ctl = bed.yoda.controller.metrics.counters
    drains_completed = (ctl["drains_completed"].value
                        if "drains_completed" in ctl else 0)

    result = ExperimentResult(
        name=f"Flash crowd ({'qos' if qos else 'no-qos'})")
    result.rows = rows
    result.summary = {
        "qos": qos,
        "legit_goodput_ratio_during_surge": round(goodput_ratio, 3),
        "legit_p99_s": (round(percentile(legit_lat, 99), 4)
                        if legit_lat else None),
        "legit_failures_total": sum(1 for e in legit_events if not e["ok"]),
        "legit_failures_during_drain": drain_failures,
        "crowd_admitted_ok": sum(1 for e in crowd_events if e["ok"]),
        "crowd_refused": sum(1 for e in crowd_events if not e["ok"]),
        "syns_shed": sheds,
        "breaker_opens": breaker_opens,
        "drains_completed": drains_completed,
        "drained_instance": drained["name"],
    }
    result.notes = (
        f"{num_instances} instances, tier-0 at {legit_rate:.0f} req/s, "
        f"crowd at {surge_rate:.0f} req/s in "
        f"[{surge_at:.0f}s, {surge_end:.0f}s), drain at {drain_at:.0f}s; "
        f"CPU cost scaled {SCALE:.0f}x (fig13 convention)."
    )
    return result


def run_ablation(seed: int = 2016, quick: bool = False) -> ExperimentResult:
    """The headline contrast: same flash crowd, qos on vs off."""
    kwargs: Dict[str, object] = {}
    if quick:
        kwargs = dict(
            legit_rate=80.0, surge_rate=400.0,
            surge_at=2.0, surge_duration=4.0,
            drain_at=7.0, duration=10.0,
        )
    with_qos = run(seed=seed, qos=True, **kwargs)
    without = run(seed=seed, qos=False, **kwargs)

    result = ExperimentResult(name="Flash-crowd ablation: qos on vs off")
    for label, sub in (("qos", with_qos), ("no-qos", without)):
        result.rows.append({
            "variant": label,
            "goodput_ratio": sub.summary["legit_goodput_ratio_during_surge"],
            "p99_s": sub.summary["legit_p99_s"],
            "legit_failures": sub.summary["legit_failures_total"],
            "drain_failures": sub.summary["legit_failures_during_drain"],
            "syns_shed": sub.summary["syns_shed"],
            "crowd_ok": sub.summary["crowd_admitted_ok"],
        })
    ratio_on = with_qos.summary["legit_goodput_ratio_during_surge"]
    ratio_off = without.summary["legit_goodput_ratio_during_surge"]
    result.summary = {
        "goodput_ratio_qos": ratio_on,
        "goodput_ratio_no_qos": ratio_off,
        "drain_failures_qos": with_qos.summary["legit_failures_during_drain"],
        "contrast": ("holds" if ratio_on >= 0.9 and ratio_off < ratio_on
                     else "LOST"),
    }
    result.notes = with_qos.notes
    return result
