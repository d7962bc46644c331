"""Multi-region failover: time-to-recovery, bytes lost, replication lag.

Not a paper figure -- the paper's YODA survives *instance* failures
through TCPStore, but a whole-region outage takes the store down with the
instances.  This experiment measures what the cross-site replication
layer buys: long-lived streaming downloads are mid-transfer when the
primary region is killed, and the run reports, per configuration,

- **detect/promote time**: kill instant -> controller promotes the
  standby (VIP re-anchored, store cluster swapped),
- **stream survival**: how many established streams run to completion
  out of the standby region,
- **bytes lost**: response bytes the established streams never received,
- **records lost**: store records the replicator had not shipped when
  the region (relay included) died.

The ablation axis is replication lag: a paced replicator at the default
50 ms interval, a lazy one at 1 s (more unshipped backlog at the kill),
and replication off entirely -- where the standby promotes against an
empty store and every established stream breaks.  Failure detection and
promotion are identical across configurations; what changes is whether
the promoted region can *resume* anything.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.chaos.faults import apply_fault, region_kill
from repro.core import RegionConfig, YodaServiceConfig
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig


def _one_run(
    seed: int,
    replication: bool,
    sync_interval: float,
    streams: int,
    chunks: int,
    chunk_bytes: int,
    interval_ms: int,
    kill_at: float,
    settle: float,
) -> Tuple[Testbed, object, float]:
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=3,
        yoda=YodaServiceConfig(region=RegionConfig(
            "dc2", replication=replication, sync_interval=sync_interval)),
    ))
    fleet = bed.streaming(streams, chunks=chunks, chunk_bytes=chunk_bytes,
                          interval_ms=interval_ms, start_at=0.2)
    bed.run(kill_at)
    kill_time = bed.loop.now()
    apply_fault(bed, region_kill(0.0, "dc"))
    bed.run(settle)
    return bed, fleet, kill_time


def run(
    seed: int = 2016,
    streams: int = 6,
    chunks: int = 60,
    chunk_bytes: int = 1_000,
    interval_ms: int = 100,
    kill_at: float = 3.0,
    settle: float = 22.0,
    lag_ablation: Tuple[float, ...] = (0.05, 1.0),
) -> ExperimentResult:
    configs: List[Tuple[str, bool, float]] = [
        (f"replication(sync={interval * 1000:.0f}ms)", True, interval)
        for interval in lag_ablation
    ]
    configs.append(("no-replication", False, 0.05))

    rows = []
    for label, replication, sync_interval in configs:
        bed, fleet, kill_time = _one_run(
            seed, replication, sync_interval, streams, chunks, chunk_bytes,
            interval_ms, kill_at, settle,
        )
        region = bed.yoda.controller.region
        detect: Optional[float] = (
            region.failover_at - kill_time if region.failed_over
            else None
        )
        established = [c.result for c in fleet.clients
                       if c.result.established_at is not None
                       and c.result.established_at < kill_time]
        survived = [r for r in established if r.complete]
        bytes_lost = sum(max(0, r.bytes_expected - r.bytes_received)
                         for r in established)
        # completion measured from the kill: how long the surviving
        # streams needed to finish out of the standby region
        resume_tail = max((r.finished_at - kill_time for r in survived),
                          default=0.0)
        rows.append({
            "config": label,
            "failed_over": region.failed_over,
            "detect_s": round(detect, 3) if detect is not None else "-",
            "streams": f"{len(survived)}/{len(established)}",
            "bytes_lost": bytes_lost,
            "records_lost": region.failover_records_lost,
            "last_finish_s": round(resume_tail, 2) if survived else "-",
        })

    with_repl = rows[0]
    without = rows[-1]
    return ExperimentResult(
        name="multi-region failover: stream survival vs replication lag",
        rows=rows,
        summary={
            "survived_with_replication": with_repl["streams"],
            "survived_without": without["streams"],
            "bytes_lost_without": without["bytes_lost"],
        },
        notes=(
            "Streams established before the region kill; 'detect_s' is "
            "kill -> standby promotion, 'last_finish_s' is kill -> last "
            "surviving stream completion.  Replication lag adds resume "
            "work (a stale checkpoint re-serves more bytes) but does not "
            "break correctness; no replication breaks every stream."
        ),
    )


def run_quick(seed: int = 2016) -> ExperimentResult:
    return run(seed=seed, streams=3, chunks=40, settle=18.0,
               lag_ablation=(0.05,))
