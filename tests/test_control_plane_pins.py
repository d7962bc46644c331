"""Control-plane pins: what the controllers decided, not only what the wire
carried.

A mapping push is a method call on the L4 LB, a journal write is one kv
set, a drain is a status object: none of them is a packet until it moves
traffic, so a packet digest alone cannot see a changed control decision.
Each case runs one chaos-library scenario at its library defaults (seed
2016) and pins

- the run digest (``ScenarioOutcome.trace_digest``), the canonical
  schedule digest of the same captures (the ``canonical_trace_line`` fold
  ``GoldenRecorder`` computes over a ``scope="all"`` tap, as the goldens'
  ``digest``) and every verdict's ``(invariant, checked,
  violation_count)``, for the nine scenarios no golden corpus pins, and
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
from repro.core.leader import journal_state
from tests.test_golden_traces import GoldenRecorder

SEED = 2016

# scenario -> (trace digest, canonical schedule digest,
#              [(invariant, checked, violation_count), ...])
RUN_PINS = {
    "ctrl-leader-kill-mid-drain": (
        "b60ee3554fab0eb58bf587a94ffe04b7b354f4cf2c7dd654838d17b3e37daffb",
        "5cd43062899cf27ec5099da20d5a62b276b1f00deb651c46e221d2d1213ae247",
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
        "de8e313f3620cf941ed45cd25235b2e3f270d21556987d4a991fa81763cda352",
        "6508c44cf9677411a7c7b22bce72b58b29b14d7078a0223a25a0a976c1eefabe",
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
        "fd1d9ea226d0152fa7a923d8a1c12bdb052c6aad570003034bf1a5b98086104a",
        "69b164fb5a8f7358c1c1ab390db76d3dd85318840f226d93477fb04ea2aeaa35",
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
        "6e7cfdddbc7ef6b6881c3cc2754a09467a491813575b919ed6cc9e5894bce907",
        "b3e5b9c175d5733445cf361ca765c0e145e00733560f7318145b59be1f03bc89",
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
        "ab853e72c83a29b48c34ba80f1ecefaa714d092e0fe38a6a74b892f21c7f55e9",
        "c8c735aa4297db968aebf588763d5fb4cc0caf9794b220766825fbdb60692ff6",
        [("storage-before-ack", 134, 0),
         ("acked-byte-loss", 58478, 0),
         ("flow-conservation", 67, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 67, 0),
         ("replication-factor", 367, 0)]),
    "flash-crowd": (
        "cafe9addc35c403872fea08a0b92991973b5e24df4c629324c1a784f7a4e0889",
        "029b0a31d5389d5ef9902e837ae3832a3e8ca750a2db4c6fe7ba966fa096ec3e",
        [("storage-before-ack", 930, 0),
         ("acked-byte-loss", 27517, 0),
         ("flow-conservation", 1044, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 465, 0),
         ("replication-factor", 929, 0)]),
    "flash-crowd-autoscale": (
        "43e748b821d4b737dd0995b6cdfd46ebd7e2dfdd10a82125cd66826e6c1cfd0b",
        "7e6bd61e5728abc6984f6bfa4cb1180f86cbbcdf24feba184f3d60288adb294a",
        [("storage-before-ack", 1100, 0),
         ("acked-byte-loss", 32451, 0),
         ("flow-conservation", 1354, 0),
         ("snat-leak", 4, 0),
         ("no-accepted-request-dropped", 550, 0),
         ("replication-factor", 1095, 0),
         ("scale-events-converge", 3, 0)]),
    "gray-cpu": (
        "d7d24c0039b5a37808b2e8bc59849a823b1e45c1bfa88a312b1fda9c06267853",
        "34c7136b8e3d525ddea2d34639379d848a2c18e06017cbe3c4dd8dc6f02e7be4",
        [("storage-before-ack", 184, 0),
         ("acked-byte-loss", 19504, 0),
         ("flow-conservation", 92, 0),
         ("snat-leak", 3, 0),
         ("no-accepted-request-dropped", 92, 0),
         ("replication-factor", 326, 0)]),
    "scale-in-during-region-kill": (
        "6d50f4855248b7e5417fb506f3f1928edf62f31dd0f4510be772bc48e6e9c6c7",
        "93ac86191471d5267881c8b525fcf29e6c7726642eb75e19dcf184b6a72bedcc",
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
        "journal": json.dumps(journal_state(ctl), sort_keys=True),
        "assignments": ctl.assignments,
        "active": ctl.active,
        "draining": sorted(ctl.draining),
        "spares": [s.name for s in ctl.spares],
        "instances": list(ctl.instances),
        "live": ctl.live_instance_names(),
        "failover": [ctl.region.failed_over, ctl.region.failover_at,
                     ctl.region.failover_records_lost],
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


def run_pinned(name: str, recorder=None):
    """Run one library scenario at the pinned seed, ``recorder`` tapping
    its packets: (outcome, engine)."""
    engine = ScenarioEngine(get_scenario(name), lb="yoda", seed=SEED)
    if recorder is not None:
        engine.build().network.add_trace(recorder)
    return engine.run(), engine


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_control_plane_is_pinned(name):
    recorder = GoldenRecorder() if name in RUN_PINS else None
    outcome, engine = run_pinned(name, recorder)
    if name in RUN_PINS:
        measured = (outcome.trace_digest, recorder.digest(),
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
