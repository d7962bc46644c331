"""Elasticity redo of the paper's Figure 15 cost analysis.

The paper sizes YODA statically for *peak* traffic and reports the cost
of that headroom.  This experiment plays a 24-hour diurnal +
flash-crowd day (the PR 9 trace generator, compressed onto simulated
seconds) against three provisioning strategies:

- ``static-peak``  -- the paper's answer: a pool sized so the flash
  crowd never saturates it, paid for all day.
- ``autoscaled``   -- the ``repro.autoscale`` closed loop: start at the
  floor, adopt spares when CPU crosses the high watermark, drain back
  down (make-before-break) when the day quiets, and scale the TCPStore
  replica set alongside the instance pool.
- ``floor`` (the ``--no-autoscale`` ablation) -- the floor pool with the
  loop disarmed: what you get if you try to pocket the savings without
  the control loop.  It MUST blow the SLO under the flash crowd; the
  ablation is pinned to fail so the contrast cannot silently rot.

Cost is instance-seconds actually powered (active + draining; parked
spares are free -- that is the whole elasticity bargain), reported both
raw and re-expanded to modeled instance-hours of the 24 h day.  SLO
attainment is the fraction of issued requests that complete OK within
``slo_latency``.  The autoscaled leg must come in under 0.7x the
static-peak cost at equal-or-better SLO attainment, with the
``no-accepted-request-dropped`` and ``scale-events-converge``
invariants holding across every scale event -- the same auditors the
chaos plane uses, wired straight into the experiment.

Honesty notes (enforced in ``BENCH_elastic.json``): the day is
compressed (``sim_seconds`` of virtual time), rates are scaled down
with per-packet CPU cost scaled up by ``SCALE`` (the Figure 13
convention, so utilization trajectories are preserved), and everything
runs on whatever cores the container has -- wall-clock is incidental,
the cost metric is *simulated* instance time, never extrapolated.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.autoscale import ElasticPolicy
from repro.chaos.invariants import (
    NoAcceptedRequestDropped,
    RunEnd,
    ScaleEventsConverge,
    Verdict,
    attach_suite,
)
from repro.core import YodaCostModel, YodaServiceConfig
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig
from repro.workload.trace import DiurnalConfig, DiurnalTrace, generate_diurnal_trace

SCHEMA = "bench-elastic/v1"
# fig13 convention: rates ~SCALE x smaller, CPU cost SCALE x up.  At 100x
# one instance saturates near ~94 req/s, so the whole day fits in a few
# thousand simulated requests while preserving utilization trajectories.
SCALE = 100.0
HTTP_TIMEOUT = 8.0  # the open-loop client's per-fetch timeout
SAMPLE_EVERY = 0.25  # seconds between samples of the powered pool


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux fallback
        return os.cpu_count() or 1


def _day(seed: int, sim_seconds: float, base_rps: float) -> DiurnalTrace:
    """The compressed day: cosine diurnal swing plus two flash crowds
    wide enough (in sim time) that a 0.5 s control loop can race them."""
    cfg = DiurnalConfig(
        seed=seed,
        sim_seconds=sim_seconds,
        interval_seconds=0.5,
        sim_fraction=base_rps / DiurnalConfig().modeled_base_rps,
        flash_crowds=((0.35, 3.0, 0.10), (0.72, 5.0, 0.12)),
    )
    return generate_diurnal_trace(cfg)


def elastic_policy(floor: int, ceiling: int) -> ElasticPolicy:
    """The experiment's production policy: CPU hysteresis band, fast
    checks, bounded steps, cooldowns long enough that the converge
    invariant holds, store replicas riding the instance count."""
    return ElasticPolicy(
        high_watermark=0.45,
        low_watermark=0.15,
        target=0.30,
        check_interval=0.25,
        cooldown_out=0.75,
        cooldown_in=6.0,
        step_out=4,
        step_in=1,
        min_instances=floor,
        max_instances=ceiling,
        scale_down=True,
        drain=True,
        drain_deadline=2.0,
        scale_stores=True,
        instances_per_store=2,
        min_stores=2,
        max_stores=4,
    )


def _run_leg(
    label: str,
    seed: int,
    trace: DiurnalTrace,
    num_instances: int,
    spare_instances: int = 0,
    policy: Optional[ElasticPolicy] = None,
    slo_latency: float = 2.5,
) -> Dict[str, object]:
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda",
        num_lb_instances=num_instances,
        num_store_servers=2, num_backends=3,
        corpus="flat", flat_object_bytes=8_000, flat_object_count=20,
        yoda=YodaServiceConfig(
            cost_model=YodaCostModel().scaled(SCALE),
            spare_instances=spare_instances, autoscale=policy),
    ))
    # two of the auditors every chaos scenario runs: scale events may
    # refuse new SYNs but must never sacrifice accepted flows, and the
    # loop (where one is armed) must converge
    _, invariants = attach_suite(
        bed, (NoAcceptedRequestDropped, ScaleEventsConverge))

    ctl = bed.yoda.controller
    day = trace.config.sim_seconds

    # ---- cost meter: sample the powered pool (active + draining) ----------
    samples: List[Dict[str, float]] = []

    def powered_instances() -> int:
        return sum(
            1 for n in ctl.instances
            if ctl.instance_health.is_healthy(n)
            and (ctl.active.get(n) or n in ctl.draining)
        )

    def sample() -> None:
        samples.append({
            "t": bed.loop.now() - t0,
            "instances": powered_instances(),
            "stores": len(ctl.kv_cluster.servers) if ctl.kv_cluster else 0,
            "rate": trace.rate_at(bed.loop.now() - t0),
        })
        if bed.loop.now() - t0 < day - 1e-9:
            bed.loop.call_later(SAMPLE_EVERY, sample)

    # ---- the day's load: one open-loop client tracking the trace ----------
    events: List[Dict[str, float]] = []
    t0 = bed.loop.now()
    gen = bed.open_loop(rate=trace.sim_rates[0], http_timeout=HTTP_TIMEOUT)

    def on_result(result) -> None:
        events.append({
            "t": bed.loop.now() - t0,
            "ok": 1.0 if result.ok else 0.0,
            "latency": result.latency,
        })

    gen.on_result = on_result

    def follow_trace() -> None:
        t = bed.loop.now() - t0
        if t >= day - 1e-9:
            return
        gen.set_rate(trace.rate_at(t))
        bed.loop.call_later(trace.config.interval_seconds, follow_trace)

    follow_trace()
    sample()
    bed.run(day)
    load_end = bed.loop.now()
    gen.stop()
    bed.run(HTTP_TIMEOUT + 2.0)  # stragglers resolve, final drains finish

    # ---- verdicts ---------------------------------------------------------
    verdicts: List[Verdict] = [invariant.finalize(RunEnd(load_end=load_end))
                               for invariant in invariants]
    autoscalers = bed.yoda.autoscalers
    scale_events = sum(len(a.events) for a in autoscalers)

    # ---- cost + SLO -------------------------------------------------------
    instance_seconds = sum(s["instances"] for s in samples) * SAMPLE_EVERY
    store_seconds = sum(s["stores"] for s in samples) * SAMPLE_EVERY
    ok_in_slo = sum(1 for e in events
                    if e["ok"] and e["latency"] <= slo_latency)
    attainment = ok_in_slo / len(events) if events else 0.0
    peak = max(s["instances"] for s in samples)
    events_by_kind: Dict[str, int] = {}
    for a in autoscalers:
        for ev in a.events:
            events_by_kind[ev.kind] = events_by_kind.get(ev.kind, 0) + 1
    return {
        "leg": label,
        "instance_seconds": round(instance_seconds, 2),
        "modeled_instance_hours": round(instance_seconds * 24.0 / day, 2),
        "store_seconds": round(store_seconds, 2),
        "peak_instances": peak,
        "requests": len(events),
        "slo_attainment": round(attainment, 4),
        "scale_events": scale_events,
        "events_by_kind": events_by_kind,
        "invariants": {v.invariant: v.ok for v in verdicts},
        "invariants_ok": all(v.ok for v in verdicts),
        "verdicts": verdicts,
        "samples": samples,
    }


# (sim_seconds, base_rps, static_instances, floor_instances) of the two
# sizings the CLI runs; the bench file names which one produced it, so a
# CI-sized run cannot pass for the one EXPERIMENTS.md quotes
FULL_SIZING = (40.0, 66.0, 9, 2)
QUICK_SIZING = (28.0, 60.0, 8, 2)


def run(
    seed: int = 2016,
    sim_seconds: float = FULL_SIZING[0],
    base_rps: float = FULL_SIZING[1],
    static_instances: int = FULL_SIZING[2],
    floor_instances: int = FULL_SIZING[3],
    slo_latency: float = 2.5,
    bench_path: Optional[str] = None,
    autoscale: bool = True,
) -> ExperimentResult:
    """The cost-vs-SLO contrast; writes ``BENCH_elastic.json``.

    ``autoscale=False`` (the CLI's ``--no-autoscale``) runs ONLY the
    floor-provisioned ablation leg and pins its failure: either you pay
    static-peak cost or the flash crowd blows the SLO -- there is no
    free lunch without the loop.
    """
    trace = _day(seed, sim_seconds, base_rps)
    policy = elastic_policy(floor_instances, static_instances)

    legs: List[Dict[str, object]] = []
    if autoscale:
        legs.append(_run_leg("static-peak", seed, trace, static_instances,
                             slo_latency=slo_latency))
        legs.append(_run_leg(
            "autoscaled", seed, trace, floor_instances,
            spare_instances=static_instances - floor_instances,
            policy=policy, slo_latency=slo_latency))
    legs.append(_run_leg("floor-no-autoscale", seed, trace, floor_instances,
                         slo_latency=slo_latency))

    by_leg = {l["leg"]: l for l in legs}
    ablation = by_leg["floor-no-autoscale"]
    # the ablation pin: floor provisioning without the loop must lose
    # the flash crowd (if it ever stops losing, the experiment's load no
    # longer stresses anything and the cost contrast is vacuous)
    ablation_blows_slo = ablation["slo_attainment"] < 0.97

    rows = [
        {
            "leg": l["leg"],
            "inst_hours": l["modeled_instance_hours"],
            "peak_inst": l["peak_instances"],
            "slo": l["slo_attainment"],
            "scale_events": l["scale_events"],
            "invariants": "ok" if l["invariants_ok"] else "BROKEN",
        }
        for l in legs
    ]

    summary: Dict[str, object] = {}
    if autoscale:
        static = by_leg["static-peak"]
        auto = by_leg["autoscaled"]
        cost_ratio = (auto["modeled_instance_hours"]
                      / static["modeled_instance_hours"])
        summary = {
            "cost_ratio_auto_vs_static": round(cost_ratio, 3),
            "slo_static": static["slo_attainment"],
            "slo_autoscaled": auto["slo_attainment"],
            "slo_ablation": ablation["slo_attainment"],
            "scale_events": auto["scale_events"],
            "store_events": (auto["events_by_kind"].get("store-out", 0)
                             + auto["events_by_kind"].get("store-in", 0)),
            "invariants_ok": auto["invariants_ok"],
            "contrast": (
                "holds"
                if (cost_ratio < 0.7
                    and auto["slo_attainment"] >= static["slo_attainment"]
                    and auto["invariants_ok"]
                    and auto["scale_events"] >= 4
                    and ablation_blows_slo)
                else "LOST"
            ),
        }
    else:
        summary = {
            "slo_ablation": ablation["slo_attainment"],
            "ablation_blows_slo": ablation_blows_slo,
            "contrast": "holds" if ablation_blows_slo else "LOST",
        }

    cpus = _cpus()
    sizing = (sim_seconds, base_rps, static_instances, floor_instances)
    doc = {
        "schema": SCHEMA,
        "mode": ("full" if sizing == FULL_SIZING
                 else "quick" if sizing == QUICK_SIZING else "custom"),
        "python": sys.version.split()[0],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpus": cpus,
        "seed": seed,
        "sim_seconds": sim_seconds,
        "base_rps": base_rps,
        "cpu_scale": SCALE,
        "slo_latency": slo_latency,
        "modeled_users": trace.config.users,
        "peak_to_mean": round(trace.peak_to_mean(), 3),
        "legs": [
            {k: v for k, v in l.items() if k not in ("verdicts", "samples")}
            for l in legs
        ],
        "summary": summary,
        "note": (
            "cost is simulated instance-seconds re-expanded to a modeled "
            "24 h day (fig13 CPU-scaling convention); single-box run -- "
            "nothing here measures wall-clock parallelism"
        ),
    }
    path = bench_path or os.path.join(os.getcwd(), "BENCH_elastic.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    summary = dict(summary)
    summary["bench"] = path

    result = ExperimentResult(
        name=("elastic: autoscaled vs static-peak provisioning"
              if autoscale else "elastic: --no-autoscale ablation"))
    result.rows = rows
    result.summary = summary
    result.notes = (
        f"{trace.config.users / 1e6:.0f}M modeled users, day compressed to "
        f"{sim_seconds:.0f}s at {base_rps:.0f} req/s base (x{SCALE:.0f} CPU "
        f"cost); SLO = ok within {slo_latency:.1f}s; spares cost nothing "
        f"until adopted."
    )
    return result


def quick(seed: int = 2016, bench_path: Optional[str] = None,
          autoscale: bool = True) -> ExperimentResult:
    """CI-sized: a shorter day, same shape and same pins."""
    return run(seed, *QUICK_SIZING, bench_path=bench_path,
               autoscale=autoscale)
