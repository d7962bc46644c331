"""Controller HA: the control-plane outage window, measured.

Not a paper figure -- the paper's controller is a singleton daemon, and
its failure model stops at LB instances and stores.  This experiment
kills the *controller* while it matters: an instance crash lands right
inside the controller outage, so somebody must notice the dead instance
and push it out of the VIP mappings.

Two legs, same fault schedule:

- **ha-3**: three lease-elected replicas.  The kill opens a leaderless
  window that closes when a follower wins the next epoch and replays the
  journal; the crash is then remapped by the new leader.
- **single**: one replica, the paper's deployment.  Nobody takes over:
  the outage window runs to the end of the experiment and the crashed
  instance is never removed from the mappings -- its pinned flows break.

Reported per leg: the summed leaderless window after the kill, the
crash -> mapping-repair delay (``-`` when it never happens), stream
survival, and the lease epoch reached.  The ``single`` leg showing an
unbounded window and broken streams is the point: it is the ablation
that prices the tentpole.
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.faults import apply_fault, crash
from repro.core import ControllerHAConfig, YodaServiceConfig
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig

REMAP_POLL_INTERVAL = 0.02


def _one_run(
    seed: int,
    num_controllers: int,
    streams: int,
    chunks: int,
    kill_at: float,
    crash_after: float,
    settle: float,
):
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=3,
        yoda=YodaServiceConfig(
            controllers=ControllerHAConfig(replicas=num_controllers)),
    ))
    fleet = bed.streaming(streams, chunks=chunks, chunk_bytes=1_000,
                          interval_ms=100, start_at=0.2)
    bed.run(kill_at)
    kill_time = bed.loop.now()
    rs = bed.yoda.replica_set
    leader = rs.acting_replica() or rs.replicas[0]
    leader.fail()
    bed.run(crash_after)
    crash_time = bed.loop.now()
    applied = apply_fault(bed, crash(0.0, "lb:serving"))
    dead = next(i for i in bed.yoda.instances
                if i.host.name == applied.target_name)
    watch = {"remap_at": None}

    def _poll() -> None:
        if dead.ip not in bed.l4lb.mapping(bed.vip):
            watch["remap_at"] = bed.loop.now()
            return
        bed.loop.call_later(REMAP_POLL_INTERVAL, _poll)

    _poll()
    bed.run(settle)
    return bed, fleet, kill_time, crash_time, watch["remap_at"]


def run(
    seed: int = 2016,
    streams: int = 6,
    chunks: int = 80,
    kill_at: float = 2.0,
    crash_after: float = 0.3,
    settle: float = 16.0,
) -> ExperimentResult:
    rows = []
    for label, n in (("ha-3", 3), ("single", 1)):
        bed, fleet, kill_time, crash_time, remap_at = _one_run(
            seed, n, streams, chunks, kill_at, crash_after, settle)
        rs = bed.yoda.replica_set
        end = bed.loop.now()
        outage = sum(
            max(0.0, stop - start)
            for start, stop in rs.leaderless_windows(end)
            if start >= kill_time - 1e-9
        )
        remap: Optional[float] = (
            remap_at - crash_time if remap_at is not None else None)
        results = [c.result for c in fleet.clients]
        completed = sum(1 for r in results if r.complete)
        epoch = max((e for _, ev, _, e in rs.events if ev == "active"),
                    default=0)
        rows.append({
            "config": label,
            "controllers": n,
            "outage_s": round(outage, 3),
            "remap_s": round(remap, 3) if remap is not None else "-",
            "streams": f"{completed}/{len(results)}",
            "epoch": epoch,
        })

    ha, single = rows
    return ExperimentResult(
        name="controller HA: outage window and crash repair",
        rows=rows,
        summary={
            "outage_ha3_s": ha["outage_s"],
            "outage_single_s": single["outage_s"],
            "remap_ha3_s": ha["remap_s"],
            "remap_single_s": single["remap_s"],
            "streams_ha3": ha["streams"],
            "streams_single": single["streams"],
        },
        notes=(
            "Leader killed mid-run, a serving instance crashes inside the "
            "controller outage.  'outage_s' sums leaderless windows after "
            "the kill; 'remap_s' is instance crash -> removal from the VIP "
            "mapping.  With one controller the window never closes, the "
            "dead instance is never remapped, and its pinned streams "
            "break; with three the window is bounded by lease TTL + "
            "election + journal replay."
        ),
    )


def run_quick(seed: int = 2016) -> ExperimentResult:
    return run(seed=seed, streams=4, chunks=60, settle=12.0)
