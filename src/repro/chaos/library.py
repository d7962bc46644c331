"""Built-in chaos scenario suite.

Every scenario pairs its distinctive fault with a permanent crash of the
LB instance that is busiest at that moment ("lb:serving").  The crash is
what separates the two tiers: YODA recovers the orphaned flows through
TCPStore, while HAProxy's locally-held flow state dies with the VM and
the pinned connections break (the paper's Figure 12 / Table 1 contrast).
The distinctive fault then stresses a different layer each time --
stores, paths, health checking, or the CPU itself.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.faults import (
    controller_kill,
    controller_partition,
    crash,
    drain,
    duplicate,
    flap,
    latency_spike,
    lease_store_outage,
    loss,
    partition,
    probe_loss,
    region_kill,
    slow_cpu,
    surge,
    wan_partition,
)
from repro.autoscale.decision import ElasticPolicy
from repro.chaos.scenario import Scenario
from repro.core.region import RegionConfig
from repro.core.instance import YodaCostModel
from repro.core.leader import ControllerHAConfig
from repro.core.service import YodaServiceConfig
from repro.qos.config import QosConfig

BUILTIN_SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    BUILTIN_SCENARIOS[scenario.name] = scenario
    return scenario


_register(Scenario(
    name="store-partition",
    description=(
        "One TCPStore server is partitioned from the datacenter (its VM "
        "stays up, so the omniscient monitor still likes it); kv clients "
        "must detect the silence themselves, mark it dead and quarantine "
        "it.  A serving instance then crashes and recovery must succeed "
        "against the shrunken ring."
    ),
    faults=[
        partition(1.0, "store:0", "dc", duration=6.0),
        crash(3.0, "lb:serving"),
    ],
))

_register(Scenario(
    name="asym-loss",
    description=(
        "Lossy return path (10% dc->internet) plus 5% duplication on the "
        "forward path while a serving instance crashes: TCP absorbs the "
        "packet-level chaos and TCPStore absorbs the instance loss."
    ),
    faults=[
        loss(1.0, 0.10, "dc", "internet", duration=6.0),
        duplicate(1.0, 0.05, "internet", "dc", duration=6.0),
        crash(3.0, "lb:serving"),
    ],
    # 10% loss stretches transfers (RTO backoff); give pages and the
    # drain room so slow is not misread as broken
    http_timeout=20.0,
    drain=12.0,
))

_register(Scenario(
    name="store-death-midhandshake",
    description=(
        "A store replica dies right as the first wave of handshakes is "
        "persisting storage-a (it revives empty later -- Memcached keeps "
        "nothing), then a serving instance crashes: every surviving key "
        "must still be durable on the second replica."
    ),
    faults=[
        crash(0.04, "store:0", duration=5.0),
        crash(3.0, "lb:serving"),
    ],
))

_register(Scenario(
    name="instance-flap",
    description=(
        "One instance flaps (3 fail/recover cycles) while another, "
        "currently serving, crashes for good.  Flows touched by the "
        "flapping instance migrate back and forth through TCPStore "
        "without breaking."
    ),
    faults=[
        flap(1.0, "lb:0", period=1.2, count=3),
        crash(5.0, "lb:serving"),
    ],
))

_register(Scenario(
    name="gray-cpu",
    description=(
        "Gray failure: an instance silently runs 30x slower (health "
        "probes still pass) and clients see a latency spike on top; a "
        "serving instance crashes mid-run.  Correctness must survive "
        "even when performance rots."
    ),
    faults=[
        slow_cpu(1.0, "lb:0", factor=30.0, duration=6.0),
        latency_spike(1.0, 0.030, "internet", "dc", duration=6.0),
        crash(3.0, "lb:serving"),
    ],
))

_register(Scenario(
    name="double-crash",
    description=(
        "Combined failure: a serving instance and a store replica die "
        "within 100 ms of each other.  Recovery reads must race past the "
        "dead replica (first-hit-wins) while the ring heals."
    ),
    faults=[
        crash(2.0, "lb:serving"),
        crash(2.1, "store:1", duration=5.0),
    ],
    # big objects keep transfers in flight across the crash instant --
    # that is what kills HAProxy's locally-pinned connections
    object_bytes=1_200_000,
    http_timeout=20.0,
))

_register(Scenario(
    name="rolling-store-restart",
    description=(
        "Every TCPStore server restarts in sequence (each revives empty "
        "-- Memcached keeps nothing), then a serving instance crashes.  "
        "Between restarts the anti-entropy sweeper must refill the "
        "recovered server and re-home the keys that moved, or the second "
        "restart in the sequence erases the only surviving replica of "
        "everything the first one held."
    ),
    faults=[
        crash(1.0, "store:0", duration=1.2),
        crash(4.0, "store:1", duration=1.2),
        crash(7.0, "store:2", duration=1.2),
        crash(9.5, "lb:serving"),
    ],
    # slow clients + big objects keep each page in flight ~5 s, so records
    # written before a restart are still load-bearing at the next one --
    # exactly the flows the anti-entropy sweeper exists to protect
    object_bytes=4_500_000,
    client_one_way_latency=0.120,
    http_timeout=20.0,
    drain=10.0,
))

_register(Scenario(
    name="crash-heal-crash",
    description=(
        "A store replica crashes, heals empty, and then a *different* "
        "replica crashes before the run ends; a serving instance dies in "
        "between.  Keys replicated on exactly those two servers survive "
        "only if read-repair/hinted-handoff/anti-entropy refilled the "
        "healed server before the second crash -- plain client-side "
        "replication silently drops to zero copies."
    ),
    faults=[
        crash(1.0, "store:0", duration=1.2),
        crash(3.6, "store:1", duration=6.0),
        crash(3.9, "lb:serving"),
    ],
    # the instance crash lands while the healed-but-once-empty store:0 and
    # the just-dead store:1 are the two replicas of the first page wave's
    # records: recovery succeeds only if store:0 was refilled in time
    object_bytes=4_500_000,
    client_one_way_latency=0.120,
    http_timeout=20.0,
    drain=10.0,
))

_register(Scenario(
    name="probe-loss",
    description=(
        "30% of controller health probes vanish while a serving instance "
        "genuinely crashes.  Hysteresis must keep healthy instances from "
        "flapping out of the VIP ring on single dropped probes, yet "
        "still detect the real failure."
    ),
    faults=[
        probe_loss(0.5, 0.30, duration=8.0),
        crash(3.0, "lb:serving"),
    ],
))


# the surge arrives from tier-2 clients; tier 0 (the browsers) is only
# refused once the bucket is truly empty
_FLASH_CROWD_QOS = QosConfig(
    admission_rate=30.0,
    admission_burst=20.0,
    tier_floors=(0.0, 0.0, 0.6),
    client_tiers=(("172.16.9.", 2),),
)

_register(Scenario(
    name="flash-crowd",
    description=(
        "A 300 req/s open-loop surge (tier-2 clients, IP 172.16.9.x) "
        "slams the VIP while an instance is drained for scale-in "
        "mid-crowd, then a serving instance crashes outright.  The qos "
        "plane must shed the surge at SYN time (stateless RST, tier "
        "floor 60%) while tier-0 browser clients stay admitted, the "
        "drain must hand its instance off make-before-break, and "
        "recovery must still work with the pool down two -- the "
        "no-accepted-request-dropped verdict is the point of the "
        "exercise."
    ),
    faults=[
        surge(2.0, 300.0, duration=3.0),
        drain(4.0, "lb:0", deadline=6.0),
        crash(8.0, "lb:serving"),
    ],
    object_bytes=80_000,
    object_count=8,
    yoda=YodaServiceConfig(qos=_FLASH_CROWD_QOS),
))


_register(Scenario(
    name="flash-crowd-autoscale",
    description=(
        "The flash crowd again -- but the pool starts at 2 instances and "
        "the autoscaler, not an operator, must react: admission-bucket "
        "pressure from the qos plane drives closed-loop scale-out (spare "
        "adoption, 2 per event, 1.5 s cooldown) while the surge is still "
        "ramping, then a serving instance crashes and the next pass must "
        "backfill the lost capacity.  Accepted requests survive every "
        "scale event and the event stream must converge (no thrash) -- "
        "audited by no-accepted-request-dropped and scale-events-converge."
    ),
    faults=[
        surge(2.0, 300.0, duration=4.0),
        crash(9.0, "lb:serving"),
    ],
    object_bytes=80_000,
    object_count=8,
    num_lb_instances=2,
    http_timeout=15.0,
    drain=12.0,
    yoda=YodaServiceConfig(
        qos=_FLASH_CROWD_QOS,
        spare_instances=3,
        # per-packet CPU cost scaled up so the surge's load is visible
        cost_model=YodaCostModel().scaled(6.0),
        autoscale=ElasticPolicy(
            high_watermark=0.70,
            admission_pressure_high=0.40,
            check_interval=0.5,
            cooldown_out=1.5,
            cooldown_in=8.0,
            step_out=2,
            min_instances=2,
            max_instances=5,
            scale_down=False,
        ),
    ),
))

_register(Scenario(
    name="scale-in-during-region-kill",
    description=(
        "The autoscaler sees an idle pool and starts a make-before-break "
        "scale-in drain -- and the whole primary region dies while that "
        "drain is still bleeding flows.  The controller must not confuse "
        "the in-flight voluntary drain with the region death: it promotes "
        "the standby, resumes every established stream from replicated "
        "flow state, and the 30 s scale-in cooldown keeps the policy from "
        "piling further events onto the failover (scale-events-converge "
        "audits exactly that)."
    ),
    faults=[
        region_kill(3.5, "dc"),
    ],
    clients=0,  # page clients cannot outlive their region; streams can
    streams=6,
    duration=12.0,
    drain=10.0,
    num_lb_instances=4,
    yoda=YodaServiceConfig(
        region=RegionConfig("dc2"),
        autoscale=ElasticPolicy(
            low_watermark=0.30,
            check_interval=1.0,
            scale_down=True,
            drain=True,
            drain_deadline=6.0,
            cooldown_out=30.0,
            cooldown_in=30.0,
            min_instances=3,
        ),
    ),
))

_register(Scenario(
    name="region-kill",
    description=(
        "The whole primary region dies at once -- instances, stores, "
        "backends, L4 router, the replication relay itself.  Long-lived "
        "streaming downloads are mid-transfer at the kill; the controller "
        "must detect the region death, promote the standby store cluster, "
        "re-anchor the VIP at the standby L4 LB, and the standby "
        "instances must resume every established stream from the "
        "replicated flow state (re-serving from a standby backend and "
        "suppressing the bytes the client already acknowledged).  The "
        "--no-replication ablation breaks every established stream "
        "deterministically."
    ),
    faults=[
        region_kill(3.0, "dc"),
    ],
    clients=0,  # page clients cannot outlive their region; streams can
    streams=6,
    duration=12.0,
    drain=10.0,
    yoda=YodaServiceConfig(region=RegionConfig("dc2")),
))

_register(Scenario(
    name="wan-partition",
    description=(
        "The WAN between the regions is severed for 5 s while a serving "
        "instance crashes inside the primary.  Replication backlogs and "
        "catches up after the heal; the controller must NOT promote the "
        "standby (its omniscient probes still see the primary alive) -- "
        "promotion here would be split brain.  In-region recovery of the "
        "crashed instance's flows proceeds exactly as single-site."
    ),
    faults=[
        wan_partition(2.0, "dc", "dc2", duration=5.0),
        crash(3.0, "lb:serving"),
    ],
    streams=4,
    yoda=YodaServiceConfig(region=RegionConfig("dc2")),
    drain=10.0,
))

_register(Scenario(
    name="region-gray-failure",
    description=(
        "Partial-site gray failure: one primary instance and one primary "
        "store replica die, and the WAN doubles in latency -- but the "
        "region as a whole is alive.  The controller must treat this as "
        "ordinary single-site attrition (in-region recovery, ring "
        "shrink), never as a region death; streams ride through on "
        "surviving primary capacity."
    ),
    faults=[
        crash(2.0, "store:0", duration=6.0),
        latency_spike(2.0, 0.040, "dc", "dc2", duration=6.0),
        crash(3.5, "lb:serving"),
    ],
    streams=4,
    yoda=YodaServiceConfig(region=RegionConfig("dc2")),
    drain=10.0,
))


_register(Scenario(
    name="ctrl-leader-kill-mid-drain",
    description=(
        "The lease-holding controller is killed for good while a drain "
        "it started is still in flight, then a serving instance crashes. "
        "A follower must win the next lease epoch, replay the journal, "
        "finish the old leader's drain on the old leader's deadline, and "
        "handle the crash -- while the data plane rides out the "
        "leaderless window untouched."
    ),
    faults=[
        drain(2.5, "lb:0", deadline=7.0),
        controller_kill(3.0, "ctl:leader"),
        crash(6.5, "lb:serving"),
    ],
    streams=4,
    yoda=YodaServiceConfig(controllers=ControllerHAConfig()),
))

_register(Scenario(
    name="ctrl-leader-kill-mid-failover",
    description=(
        "The primary region dies -- and the lease-holding controller "
        "dies with it, because controller replicas are hosts in a "
        "region, not omniscient daemons.  The standby-site replica must "
        "win the lease against a store cluster that is half gone, "
        "replay the journal, detect the region death and promote the "
        "standby -- resuming every established stream.  This is the "
        "region-kill scenario without the singleton controller's "
        "immortality assumption."
    ),
    faults=[
        region_kill(3.0, "dc"),
    ],
    clients=0,  # page clients cannot outlive their region; streams can
    streams=6,
    duration=12.0,
    drain=12.0,
    yoda=YodaServiceConfig(region=RegionConfig("dc2"),
                           controllers=ControllerHAConfig()),
))

_register(Scenario(
    name="ctrl-partition-dueling-leader",
    description=(
        "The lease holder is cut off from the lease store while its VM "
        "stays up, with a 2 s step-down grace: it keeps acting on its "
        "stale lease while a follower claims the next epoch -- two live "
        "controllers, both pushing.  The fence gates must serialize the "
        "duel (the old epoch's pushes bounce) and the instance crash in "
        "the middle must be recovered exactly once, by the new leader."
    ),
    faults=[
        controller_partition(2.0, "ctl:leader", duration=6.0),
        crash(4.5, "lb:serving"),
    ],
    streams=4,
    yoda=YodaServiceConfig(
        controllers=ControllerHAConfig(stepdown_grace=2.0)),
))

_register(Scenario(
    name="ctrl-rolling-restart",
    description=(
        "Operational churn: one leader restarts, the lease store goes "
        "dark for a spell (nobody can renew or claim), then the next "
        "leader restarts too, with an instance crash landing right "
        "inside the last takeover.  Long streams must ride through "
        "every handoff; each new leader resumes from the journal."
    ),
    faults=[
        controller_kill(2.0, "ctl:leader", duration=3.0),
        lease_store_outage(6.0, duration=1.5),
        controller_kill(10.0, "ctl:leader", duration=3.0),
        crash(11.5, "lb:serving"),
    ],
    streams=4,
    stream_chunks=120,  # ~12 s: alive across both leader restarts
    duration=14.0,
    drain=10.0,
    yoda=YodaServiceConfig(controllers=ControllerHAConfig()),
))


def get_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (built-ins: {known})") from None


def scenario_names() -> List[str]:
    return sorted(BUILTIN_SCENARIOS)
