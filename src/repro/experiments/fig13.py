"""Figure 13: scalability -- elastic scale-out without breaking flows.

The paper starts with 6 YODA instances at 5K req/s each (~40% CPU),
doubles the offered load at t=10 s (CPU ~80%), and the controller reacts
by activating 3 more instances, dropping per-instance load to ~6.7K req/s
and CPU to ~60% -- with every client flow maintained and no latency spike.

We run the same timeline at a scaled-down request rate with the
per-packet CPU cost scaled *up* by the same factor, so the utilization
trajectory (40% -> 80% -> ~60%) is preserved while the simulation stays
small.  The workload is the paper's Apache-bench-style single-object
fetch stream.
"""

from __future__ import annotations

from typing import List

from repro.analysis.stats import mean, median
from repro.autoscale import Autoscaler, ElasticPolicy
from repro.core import YodaCostModel, YodaServiceConfig
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig

# paper rates: 5K -> 10K req/s per instance; we run ~33x smaller rates
# with the per-packet CPU cost scaled up by SCALE, so the utilization
# trajectory (~40% -> ~80% -> ~55%) is preserved.
SCALE = 25.0


def run(
    seed: int = 2016,
    initial_instances: int = 6,
    spare_instances: int = 3,
    base_rate_per_instance: float = 150.0,
    duration: float = 30.0,
    step_at: float = 10.0,
    sample_interval: float = 1.0,
) -> ExperimentResult:
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=initial_instances,
        num_store_servers=3, num_backends=6, corpus="flat",
        flat_object_bytes=10_000,
        yoda=YodaServiceConfig(cost_model=YodaCostModel().scaled(SCALE)),
    ))
    for _ in range(spare_instances):
        bed.yoda.new_spare_instance()
    # the paper's CPU-watermark rule, attached with no spawn hook: once
    # the spares are adopted, further pressure starves quietly; scale-in
    # (off here) would be the instant removal that leans on TCPStore
    controller = bed.yoda.controller
    controller.attach_autoscaler(Autoscaler(controller, ElasticPolicy(
        high_watermark=0.70, target=0.55, check_interval=5.0, drain=False,
    )))

    gen = bed.open_loop(rate=base_rate_per_instance * initial_instances)
    samples: List[dict] = []
    t_start = bed.loop.now()
    # own busy-time bookkeeping: the autoscaler resets the shared CPU
    # windows on its schedule, so the sampler must not depend on them
    busy_marker: dict = {}
    time_marker = {"t": bed.loop.now()}

    def sample() -> None:
        ctrl = bed.yoda.controller
        live = [ctrl.instances[n] for n in ctrl.instances
                if ctrl.active.get(n) and not ctrl.instances[n].host.failed]
        now = bed.loop.now()
        window = now - time_marker["t"]
        time_marker["t"] = now
        utils = []
        for i in live:
            busy = i.cpu.busy_seconds
            utils.append(min(1.0, (busy - busy_marker.get(i.name, 0.0)) / window))
            busy_marker[i.name] = busy
        samples.append({
            "t_s": round(now - t_start, 1),
            "instances": len(live),
            "offered_req_s": gen.rate,
            "req_s_per_instance": round(gen.rate / len(live), 1),
            "avg_cpu": round(mean(utils), 3) if utils else 0.0,
        })
        bed.loop.call_later(sample_interval, sample)

    bed.loop.call_later(sample_interval, sample)
    bed.loop.call_later(
        step_at, lambda: gen.set_rate(2 * base_rate_per_instance * initial_instances)
    )
    bed.run(duration)
    gen.stop()
    bed.run(2.0)

    result = ExperimentResult(name="Figure 13: scale-out under load")
    result.rows = samples
    before = [s["avg_cpu"] for s in samples if s["t_s"] < step_at]
    surge = [s["avg_cpu"] for s in samples
             if step_at + 1 < s["t_s"] < step_at + 6]
    after = [s["avg_cpu"] for s in samples if s["t_s"] > step_at + 10]
    final_instances = samples[-1]["instances"] if samples else 0
    broken = gen.failure_count()
    result.summary = {
        "cpu_before": round(mean(before), 3) if before else None,
        "cpu_during_surge": round(mean(surge), 3) if surge else None,
        "cpu_after_scaleout": round(mean(after), 3) if after else None,
        "instances_added": final_instances - initial_instances,
        "broken_requests": broken,
        "median_latency_s": round(median(gen.latencies()), 4) if gen.latencies() else None,
        "paper": "40% -> 80% -> ~60% CPU; +3 instances; zero broken flows",
    }
    result.notes = (
        f"Rates scaled down {SCALE:.0f}x with per-packet CPU cost scaled up "
        f"{SCALE:.0f}x, preserving the utilization trajectory."
    )
    return result
