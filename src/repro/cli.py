"""Command-line experiment runner.

Regenerate any of the paper's tables/figures without pytest::

    python -m repro list
    python -m repro run fig12 --seed 7
    python -m repro run all

Each experiment prints the same rows its benchmark checks; `--seed`
changes the deterministic seed, `--quick` shrinks the workload for a fast
sanity pass.

Chaos scenarios (fault injection + invariant monitors, YODA vs the
HAProxy baseline under the same fault schedule)::

    python -m repro chaos list
    python -m repro chaos store-partition
    python -m repro chaos all --seed 7 --no-baseline
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Tuple

from repro.experiments import (
    fig6,
    fig9,
    fig10,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig_ctrl,
    fig_elastic,
    fig_failover,
    fig_overload,
    fig_stateless,
    table1,
)

# name -> (description, full_run(seed), quick_run(seed))
EXPERIMENTS: Dict[str, Tuple[str, Callable, Callable]] = {
    "table1": (
        "impact of proxy failure on website archetypes",
        lambda seed: table1.run(seed=seed),
        lambda seed: table1.run(seed=seed, sites=table1.SITES[:2]),
    ),
    "fig6": (
        "rule look-up latency vs number of rules",
        lambda seed: fig6.run(seed=seed),
        lambda seed: fig6.run(seed=seed, rule_counts=(1000, 4000, 10000),
                              lookups_per_size=300),
    ),
    "fig9": (
        "end-to-end latency breakdown (baseline / YODA / HAProxy)",
        lambda seed: fig9.run(seed=seed),
        lambda seed: fig9.run(seed=seed, rate=60.0, duration=4.0,
                              num_instances=2),
    ),
    "sec71": (
        "LB instance CPU utilization (YODA vs HAProxy)",
        lambda seed: fig9.run_cpu(seed=seed),
        lambda seed: fig9.run_cpu(seed=seed, rate=200.0, duration=3.0),
    ),
    "fig10": (
        "TCPStore latency and CPU vs load (figs 10-11)",
        lambda seed: fig10.run(seed=seed),
        lambda seed: fig10.run(seed=seed,
                               client_reqs_per_server=(4_000, 20_000),
                               duration=0.15),
    ),
    "fig12": (
        "failure recovery: 4 scenarios + packet timeline",
        lambda seed: fig12.run(seed=seed, processes=6, duration=30.0,
                               fail_at=6.0),
        lambda seed: fig12.run(seed=seed, processes=3, num_instances=6,
                               duration=15.0, fail_at=4.0),
    ),
    "fig12b": (
        "recovery packet timeline at the backend",
        lambda seed: fig12.run_timeline(seed=seed),
        lambda seed: fig12.run_timeline(seed=seed, object_bytes=500_000),
    ),
    "fig13": (
        "elastic scale-out under a 2x traffic surge",
        lambda seed: fig13.run(seed=seed),
        lambda seed: fig13.run(seed=seed, initial_instances=3,
                               spare_instances=2,
                               base_rate_per_instance=80.0,
                               duration=16.0, step_at=6.0),
    ),
    "overload": (
        "flash crowd: goodput with/without the qos overload-control plane",
        lambda seed: fig_overload.run_ablation(seed=seed),
        lambda seed: fig_overload.run_ablation(seed=seed, quick=True),
    ),
    "failover": (
        "multi-region failover: stream survival vs replication lag",
        lambda seed: fig_failover.run(seed=seed),
        lambda seed: fig_failover.run_quick(seed=seed),
    ),
    "ctrl": (
        "controller HA: outage window, crash repair, single-ctl ablation",
        lambda seed: fig_ctrl.run(seed=seed),
        lambda seed: fig_ctrl.run_quick(seed=seed),
    ),
    "elastic": (
        "autoscaled vs static-peak cost on the diurnal day "
        "(BENCH_elastic.json)",
        lambda seed, **kw: fig_elastic.run(seed=seed, **kw),
        lambda seed, **kw: fig_elastic.quick(seed=seed, **kw),
    ),
    "stateless": (
        "stateless compact dispatch: memory/flow, speed, crash ablation",
        lambda seed: fig_stateless.run_ablation(seed=seed),
        lambda seed: fig_stateless.run_ablation(seed=seed, quick=True),
    ),
    "fig14": (
        "make-before-break policy updates",
        lambda seed: fig14.run(seed=seed),
        lambda seed: fig14.run(seed=seed, rate=50.0),
    ),
    "fig15": (
        "per-VIP max/avg traffic ratios (cost reduction)",
        lambda seed: fig15.run(seed=seed),
        lambda seed: fig15.run(seed=seed),
    ),
    "fig16": (
        "VIP assignment over the 24 h trace",
        lambda seed: fig16.run(seed=seed, pool_size=170),
        lambda seed: fig16.run(seed=seed, pool_size=170, interval_stride=36),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the YODA paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    runp.add_argument("--seed", type=int, default=2016)
    runp.add_argument("--quick", action="store_true",
                      help="smaller workloads, same shapes")
    runp.add_argument("--no-autoscale", action="store_true",
                      help="(elastic only) run just the floor-provisioned "
                           "ablation leg with the control loop disarmed -- "
                           "pinned to blow the SLO under the flash crowd")
    chaosp = sub.add_parser(
        "chaos", help="run a chaos scenario ('list', a name, or 'all')")
    chaosp.add_argument("scenario", nargs="?", default=None)
    chaosp.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="enumerate built-in scenarios and their "
                             "fault timelines")
    chaosp.add_argument("--seed", type=int, default=2016)
    chaosp.add_argument("--no-baseline", action="store_true",
                        help="skip the HAProxy contrast run")
    chaosp.add_argument("--no-repair", action="store_true",
                        help="disable store self-healing (read-repair, "
                             "hinted handoff, anti-entropy) -- the "
                             "durability ablation")
    chaosp.add_argument("--no-replication", action="store_true",
                        help="disable cross-site flow-store replication -- "
                             "the multi-region ablation (established "
                             "flows cannot survive a region kill)")
    chaosp.add_argument("--single-controller", action="store_true",
                        help="run with one controller replica instead of "
                             "the scenario's HA set -- the controller "
                             "ablation (a leader kill leaves the control "
                             "plane down for good)")
    chaosp.add_argument("--stateless", action="store_true",
                        help="route via the compact stateless dispatch "
                             "table instead of per-flow mux state -- the "
                             "fast-path ablation (established flows do "
                             "not survive an instance crash)")
    obsp = sub.add_parser(
        "obs", help="run a short traced workload (with a mid-run LB crash) "
                    "and emit the observability report")
    obsp.add_argument("--seed", type=int, default=2016)
    obsp.add_argument("--rate", type=float, default=80.0,
                      help="open-loop request rate (req/s)")
    obsp.add_argument("--duration", type=float, default=4.0)
    obsp.add_argument("--format", choices=["text", "prom", "json"],
                      default="text")
    obsp.add_argument("--out", default=None,
                      help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)

    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "obs":
        return _run_obs(args)

    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"  {name:<{width}}  {EXPERIMENTS[name][0]}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _, full, quick = EXPERIMENTS[name]
        kwargs = {}
        if name == "elastic" and args.no_autoscale:
            kwargs["autoscale"] = False
        started = time.perf_counter()
        result = (quick if args.quick else full)(args.seed, **kwargs)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"[{name} finished in {elapsed:.1f}s]\n")
    return 0


def _run_obs(args) -> int:
    # Imported lazily so `python -m repro list` stays instant.
    from repro.experiments.harness import Testbed, TestbedConfig
    from repro.obs import OBS
    from repro.obs.export import render_json, render_prometheus
    from repro.obs.report import render_report

    OBS.enable()
    bed = Testbed(TestbedConfig(
        seed=args.seed, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=3, corpus="flat", flat_object_bytes=10_000,
    ))
    gen = bed.open_loop(args.rate)
    # a mid-run instance crash gives the flight recorders and the chaos
    # forensics something real to show
    bed.loop.call_later(args.duration * 0.25, lambda: bed.fail_lb_instances(1))
    bed.run(args.duration)
    gen.stop()
    bed.run(1.0)  # drain

    if args.format == "prom":
        text = render_prometheus()
    elif args.format == "json":
        text = render_json()
    else:
        text = render_report()
    OBS.disable()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"[obs report written to {args.out}]")
    else:
        print(text)
    return 0


def _run_chaos(args) -> int:
    # Imported lazily so `python -m repro list` stays instant.
    from repro.chaos import get_scenario, run_contrast, run_scenario
    from repro.chaos.library import BUILTIN_SCENARIOS, scenario_names

    if args.list_scenarios or args.scenario in (None, "list"):
        width = max(len(n) for n in BUILTIN_SCENARIOS)
        for name in scenario_names():
            scenario = BUILTIN_SCENARIOS[name]
            print(f"  {name:<{width}}  {scenario.description.strip()}")
            for line in scenario.timeline():
                print(f"  {'':<{width}}    {line}")
        return 0

    names = scenario_names() if args.scenario == "all" else [args.scenario]
    exit_code = 0
    for name in names:
        try:
            scenario = get_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        started = time.perf_counter()
        repair = not args.no_repair
        replication = False if args.no_replication else None
        if args.single_controller or args.stateless:
            from dataclasses import replace

            from repro.core.leader import ControllerHAConfig
            yoda = scenario.yoda
            if args.single_controller:
                yoda = replace(yoda, controllers=replace(
                    yoda.controllers or ControllerHAConfig(), replicas=1))
            if args.stateless:
                yoda = replace(yoda, stateless=True)
            scenario = replace(scenario, yoda=yoda)
        if (args.no_baseline or args.no_replication
                or args.single_controller or args.stateless):
            # the replication ablation is a YODA-only knob; contrasting
            # it against HAProxy would compare different deployments
            outcomes = {"yoda": run_scenario(scenario, lb="yoda",
                                             seed=args.seed, repair=repair,
                                             replication=replication)}
        else:
            outcomes = run_contrast(scenario, seed=args.seed, repair=repair)
        elapsed = time.perf_counter() - started
        for outcome in outcomes.values():
            print(outcome.render())
        yoda_ok = outcomes["yoda"].ok
        haproxy = outcomes.get("haproxy")
        if haproxy is not None:
            contrast = "holds" if (yoda_ok and not haproxy.ok) else "LOST"
            print(f"[{name}: yoda {'clean' if yoda_ok else 'BROKEN'}, "
                  f"haproxy {'broken' if not haproxy.ok else 'clean'} -> "
                  f"contrast {contrast}; {elapsed:.1f}s]\n")
            if not yoda_ok:
                exit_code = 1
        else:
            print(f"[{name}: yoda {'clean' if yoda_ok else 'BROKEN'}; "
                  f"{elapsed:.1f}s]\n")
            if not yoda_ok:
                exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
