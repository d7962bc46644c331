#!/usr/bin/env python3
"""Elastic scale-out under a traffic surge (the Figure 13 scenario).

Starts 3 YODA instances plus 2 provisioned-but-idle spares, doubles the
offered load mid-run, and watches the controller's autoscaler pull spares
into service -- while every in-flight request completes.  This is the
capability the paper contrasts with self-managed HAProxy fleets, where
adding/removing instances breaks connections (Section 2.3, Problem 2).

Run:  python examples/elastic_scaling.py
"""

from repro.autoscale import Autoscaler, ElasticPolicy
from repro.core import YodaCostModel, YodaServiceConfig
from repro.experiments.harness import Testbed, TestbedConfig


def main() -> None:
    scale = 25.0  # shrink request rates, grow per-packet CPU cost to match
    bed = Testbed(TestbedConfig(
        seed=11, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=4, corpus="flat", flat_object_bytes=10_000,
        yoda=YodaServiceConfig(cost_model=YodaCostModel().scaled(scale)),
    ))
    controller = bed.yoda.controller
    for _ in range(2):
        bed.yoda.new_spare_instance()
    # the paper's CPU-watermark rule: scale out only, bounded by the spares
    controller.attach_autoscaler(Autoscaler(controller, ElasticPolicy(
        high_watermark=0.70, target=0.55, check_interval=3.0, drain=False,
    )))

    generator = bed.open_loop(rate=450.0)  # ~150 req/s per instance
    bed.loop.call_later(9.0, lambda: generator.set_rate(900.0))

    busy_marker = {}

    def report() -> None:
        live = [controller.instances[n] for n in controller.instances
                if controller.active.get(n) and not controller.instances[n].host.failed]
        utils = []
        for inst in live:
            busy = inst.cpu.busy_seconds
            utils.append((busy - busy_marker.get(inst.name, 0.0)) / 3.0)
            busy_marker[inst.name] = busy
        avg = sum(utils) / len(utils)
        print(f"t={bed.loop.now():5.1f}s  instances={len(live)}  "
              f"offered={generator.rate:6.0f} req/s  avg_cpu={avg:4.0%}")
        bed.loop.call_later(3.0, report)

    bed.loop.call_later(3.0, report)
    bed.run(27.0)
    generator.stop()
    bed.run(2.0)

    ok, failed = generator.ok_count(), generator.failure_count()
    print(f"\nrequests: {ok} ok, {failed} failed "
          f"(scale-out added {controller.metrics.counter('scaled_up').value} "
          f"instance(s) with zero broken flows)")
    assert failed == 0


if __name__ == "__main__":
    main()
