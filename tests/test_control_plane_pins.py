"""Control-plane pins: what the controllers decided, not only what the wire
carried.

A mapping push is a method call on the L4 LB, a journal write is one kv
set, a drain is a status object: none of them is a packet until it moves
traffic, so a packet digest alone cannot see a changed control decision.
Each case runs one chaos-library scenario at its library defaults (seed
2016) and pins

- the run digest (``ScenarioOutcome.trace_digest``) and every verdict's
  ``(invariant, checked, violation_count)``, for the nine scenarios no
  golden corpus pins, and
- a control-plane fingerprint, for those nine plus three whose packet
  schedules the golden corpora already pin.

The fingerprint is the SHA-256 of, for every controller (each replica's
under controller HA): its metric counters, its journal snapshot, its
assignments, active and draining sets, spare and instance names, serving
instances, the failover triple and the traffic statistics.  Under HA it
also covers the replica set's leadership events, every fence gate's
``(name, log, rejected)`` and each elector's state, epochs and counters;
on every run it covers each autoscaler's event ledger and the final VIP
mapping at both sites.  The values were recorded at the commit before the
controller kept each of these facts in one place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine

SEED = 2016

# scenario -> (trace digest, [(invariant, checked, violation_count), ...])
RUN_PINS = {
    "ctrl-leader-kill-mid-drain": (
        "03efa8f2b1f4890b37f10c3dc2e0b7915cc3ceee060630c2551e90d4148d4254",
        [("storage-before-ack", 206, 0),
         ("acked-byte-loss", 21234, 0),
         ("flow-conservation", 103, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 103, 0),
         ("replication-factor", 507, 0),
         ("established-flows-survive-region-failover", 0, 0),
         ("at-most-one-acting-leader", 20, 0),
         ("control-plane-static-stability", 4, 0)]),
    "ctrl-leader-kill-mid-failover": (
        "fd64a96d8d5e42a08fdce8655c837d7d8ab4854a02f6274bd5833b1eb708a684",
        [("storage-before-ack", 18, 0),
         ("acked-byte-loss", 396, 0),
         ("flow-conservation", 6, 0),
         ("snat-leak", 4, 0),
         ("no-accepted-request-dropped", 6, 0),
         ("replication-factor", 437, 0),
         ("established-flows-survive-region-failover", 6, 0),
         ("no-split-brain-promotion", 1, 0),
         ("at-most-one-acting-leader", 20, 0),
         ("control-plane-static-stability", 6, 0)]),
    "ctrl-partition-dueling-leader": (
        "950a41287afdc9bf0618d243b57dd6bc98dc83da2ba959871ae97d0a6446647a",
        [("storage-before-ack", 200, 0),
         ("acked-byte-loss", 20422, 0),
         ("flow-conservation", 100, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 100, 0),
         ("replication-factor", 485, 0),
         ("established-flows-survive-region-failover", 0, 0),
         ("at-most-one-acting-leader", 15, 0),
         ("control-plane-static-stability", 0, 0)]),
    "ctrl-rolling-restart": (
        "ffc67e9c0e389c60a2b2d98fcf0cabfcfd5644aafcf32abb7f7f43ad320e3b15",
        [("storage-before-ack", 260, 0),
         ("acked-byte-loss", 26959, 0),
         ("flow-conservation", 130, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 130, 0),
         ("replication-factor", 754, 0),
         ("established-flows-survive-region-failover", 0, 0),
         ("at-most-one-acting-leader", 27, 0),
         ("control-plane-static-stability", 4, 0)]),
    "double-crash": (
        "20e2d1a516ef2c9fcb1c1f1aa28b2343fad458915e2552fdb7aee1e950547021",
        [("storage-before-ack", 134, 0),
         ("acked-byte-loss", 58478, 0),
         ("flow-conservation", 67, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 67, 0),
         ("replication-factor", 367, 0)]),
    "flash-crowd": (
        "a90b0ebd752e5205e43a8a3cc695c0f71cbb72402c003d3868b400371c75f3ea",
        [("storage-before-ack", 930, 0),
         ("acked-byte-loss", 27517, 0),
         ("flow-conservation", 1044, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 465, 0),
         ("replication-factor", 929, 0)]),
    "flash-crowd-autoscale": (
        "0f9af96da0b62612c66d619309bc97586122d4f3da352592f566c9484f44be6b",
        [("storage-before-ack", 1100, 0),
         ("acked-byte-loss", 32451, 0),
         ("flow-conservation", 1354, 0),
         ("snat-leak", 4, 0),
         ("no-accepted-request-dropped", 550, 0),
         ("replication-factor", 1095, 0),
         ("scale-events-converge", 3, 0)]),
    "gray-cpu": (
        "d7881da19d4eef00ba522bf878bfe18ccd4817eeb0ce23a7ec86b8e26aa63cf3",
        [("storage-before-ack", 184, 0),
         ("acked-byte-loss", 19504, 0),
         ("flow-conservation", 92, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 92, 0),
         ("replication-factor", 326, 0)]),
    "scale-in-during-region-kill": (
        "089de43f3c27c45bccbbcca34a362706a6ca2d64c1b374335adb4215ad046c5c",
        [("storage-before-ack", 18, 0),
         ("acked-byte-loss", 396, 0),
         ("flow-conservation", 6, 0),
         ("snat-leak", 4, 0),
         ("no-accepted-request-dropped", 6, 0),
         ("replication-factor", 437, 0),
         ("established-flows-survive-region-failover", 6, 0),
         ("no-split-brain-promotion", 1, 0),
         ("scale-events-converge", 1, 0)]),
}

# scenario -> control-plane fingerprint
FINGERPRINTS = {
    "ctrl-leader-kill-mid-drain":
        "3bfaefa5c062dd4c5f962d9b75c23560d8ce172125dbe59482ac1cb5c4fbcede",
    "ctrl-leader-kill-mid-failover":
        "a8744bad5b8663a3ca74d5b66e42fb16f8120a8791c2fe03db04acaa02849d80",
    "ctrl-partition-dueling-leader":
        "fc8d0491f14126efbe1cb57dfb45c5c6dc4c6004c4e80891a8a3b57d4635ded5",
    "ctrl-rolling-restart":
        "2ec6fc85dbb0c070d41fa08eb1f68c66e527fc374fb8393b0ac640960219b33c",
    "double-crash":
        "c5eff95b4f26dd784e8c0fee72ce60a122d0ae77ca9f805ddcea98da3d8421ba",
    "flash-crowd":
        "5f069ab25206c4d494d5deefbe287463bde671a342ea9b5632b1eb6bc288e6c3",
    "flash-crowd-autoscale":
        "64c07d849c79b3b868eb0f7147aef2b6d0d68997794e92d62a546746f351875a",
    "gray-cpu":
        "a21bf5796295784a8af269859c35ec271520e2da17476017e24bd84455f90bc1",
    "instance-flap":
        "752b628100d95d293e2a25dc7c66c9fe6be4919cbc171eeabd02aad71ee5ab1d",
    "probe-loss":
        "aca56933118397350f963fdc8d61f116d007dbd5ef723bb795474e8bc3715b72",
    "region-kill":
        "bb35eab015bb493998631d5c0c74697c21d739334a289e29c7f4af2d4519eac2",
    "scale-in-during-region-kill":
        "03fa9a6cf5cb2669e19189adafceb4bf2e6656a6b8554ef324937d227562b171",
}


def _counters(metrics):
    return {name: c.value for name, c in sorted(metrics.counters.items())}


def _controller_state(ctl):
    return {
        "counters": _counters(ctl.metrics),
        "journal": json.dumps(ctl._journal_state(), sort_keys=True),
        "assignments": ctl.assignments,
        "active": ctl.active,
        "draining": sorted(ctl.draining),
        "spares": [s.name for s in ctl.spares],
        "instances": list(ctl.instances),
        "live": ctl.live_instance_names(),
        "failover": [ctl.failed_over, ctl.failover_at,
                     ctl.failover_records_lost],
        "traffic": ctl.traffic_stats,
    }


def control_fingerprint(engine) -> str:
    bed = engine.bed
    yoda = bed.yoda
    rs = yoda.replica_set
    if rs is None:
        doc = {"controllers": [_controller_state(yoda.controller)]}
    else:
        doc = {
            "controllers": [_controller_state(r.controller)
                            for r in rs.replicas],
            "events": rs.events,
            "gates": [(g.name, g.log, g.rejected) for g in rs.gates()],
            "electors": [(r.elector.state, r.elector.epoch,
                          r.elector.observed_epoch, r.elector.lease_expires,
                          _counters(r.elector.metrics))
                         for r in rs.replicas],
        }
    doc["autoscalers"] = [[asdict(e) for e in a.events]
                          for a in yoda.autoscalers]
    sites = [bed.l4lb] + ([yoda.standby_l4lb]
                          if yoda.standby_l4lb is not None else [])
    doc["mappings"] = [l4.mapping(bed.vip) for l4 in sites]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_pinned(name: str):
    """Run one library scenario at the pinned seed: (outcome, engine)."""
    engine = ScenarioEngine(get_scenario(name), lb="yoda", seed=SEED)
    return engine.run(), engine


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_control_plane_is_pinned(name):
    outcome, engine = run_pinned(name)
    if name in RUN_PINS:
        measured = (outcome.trace_digest,
                    [(v.invariant, v.checked, v.violation_count)
                     for v in outcome.verdicts])
        assert measured == RUN_PINS[name], f"{name}: {measured}"
    fingerprint = control_fingerprint(engine)
    assert fingerprint == FINGERPRINTS[name], f"{name}: {fingerprint}"


def test_the_pinned_set_is_the_unpinned_library():
    """The nine run pins are the scenarios neither golden corpus covers."""
    from tests.test_golden_traces import SCENARIO_VARIANTS
    from tests.test_region_golden import REGION_VARIANTS
    from repro.chaos.library import scenario_names

    golden = set(SCENARIO_VARIANTS) | {
        v["scenario"] for v in REGION_VARIANTS.values()}
    assert set(RUN_PINS) == set(scenario_names()) - golden
    assert set(RUN_PINS) < set(FINGERPRINTS)
