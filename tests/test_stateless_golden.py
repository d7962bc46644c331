"""Zero-perturbation gate for the compact stateless dispatch machinery.

An armed-but-disabled :class:`StatelessConfig` (``enabled=False``) makes
the control plane build compact tables on every mapping push and ride
the snapshots into every mux -- but dispatch must be untouched.  All of
that is pure stable-hash computation: no events scheduled, no simulation
randomness drawn.  This suite replays pinned golden-trace scenarios with
the machinery armed and demands bit-identical digests against the same
golden files the plain suites pin -- both the single-site corpus
(``tests/golden/``) and a multi-region entry (``tests/golden_region/``).

Like its qos and obs twins, this suite never skips: a missing golden
file is a hard failure.
"""

import dataclasses

import pytest

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.l4lb.compact import StatelessConfig
from tests.test_golden_traces import (
    GOLDEN_SEED,
    SCENARIO_VARIANTS,
    GoldenRecorder,
    first_divergence_report,
    load_golden,
)
from tests.test_region_golden import (
    REGION_VARIANTS,
    load_golden as load_region_golden,
)

# the cheap half of the single-site corpus -- covers mapping pushes,
# instance failure/flap (compact tables rebuilt on membership change), and the
# store-partition recovery machinery
STATELESS_GOLDEN_SCENARIOS = [
    "store-partition",
    "instance-flap",
    "probe-loss",
]

# one multi-region pin: a region kill re-pushes every mapping on the
# standby (its own compact tables), the worst case for a stray draw
STATELESS_REGION_SCENARIO = "region-kill"


def assert_armed_machinery_ran(engine, lb=None) -> None:
    """The config must have genuinely constructed and exercised the
    compact machinery, not been dropped on the floor.  ``lb`` defaults to
    the primary L4 LB; region tests pass the acting one (a failover swaps
    the controller onto the standby's LB, and the primary's snapshot is
    correctly dropped when its mapping empties)."""
    if lb is None:
        lb = engine.bed.yoda.l4lb
    assert lb.stateless is not None
    assert not lb.stateless_enabled  # armed, not enabled
    vips = lb.vips()
    assert vips
    for vip in vips:
        assert lb.compact_table(vip) is not None, (
            f"no compact snapshot was built for {vip}"
        )
        assert lb.compact_version(vip) >= 1
    # snapshots rode the pushes into every mux
    for mux in lb.muxes:
        for vip in vips:
            entry = mux.vips.get(vip)
            assert entry is not None and entry.compact is not None


@pytest.mark.parametrize("name", STATELESS_GOLDEN_SCENARIOS)
def test_armed_stateless_is_bit_identical(name):
    golden = load_golden(name)
    assert golden is not None, (
        f"no golden file for scenario {name!r}; generate with "
        f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
        f"tests/test_golden_traces.py first"
    )
    base = get_scenario(name)
    scenario = dataclasses.replace(
        base,
        # armed but disabled
        yoda=dataclasses.replace(base.yoda, stateless=StatelessConfig()),
        **SCENARIO_VARIANTS[name],
    )
    recorder = GoldenRecorder()
    engine = ScenarioEngine(scenario, lb="yoda", seed=GOLDEN_SEED,
                            taps=[recorder])
    outcome = engine.run()
    assert_armed_machinery_ran(engine)
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail(
            "armed stateless machinery perturbed the packet schedule\n"
            + first_divergence_report(name, golden, recorder),
            pytrace=False,
        )
    assert outcome.trace_digest == golden["engine_digest"]
    assert outcome.stateless is False  # armed is not enabled


def test_armed_stateless_is_bit_identical_region():
    name = STATELESS_REGION_SCENARIO
    golden = load_region_golden(name)
    assert golden is not None, (
        f"no golden file for region scenario {name!r}; generate with "
        f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
        f"tests/test_region_golden.py first"
    )
    spec = REGION_VARIANTS[name]
    base = get_scenario(spec["scenario"])
    scenario = dataclasses.replace(
        base, yoda=dataclasses.replace(base.yoda, stateless=StatelessConfig()))
    recorder = GoldenRecorder()
    engine = ScenarioEngine(scenario, lb="yoda", seed=GOLDEN_SEED,
                            taps=[recorder], replication=spec["replication"])
    outcome = engine.run()
    # region-kill fails the primary over: the standby's L4 LB is the one
    # whose compact machinery must have run (and the controller's version
    # journal must have followed it)
    assert_armed_machinery_ran(engine, lb=engine.bed.yoda.controller.l4lb)
    assert engine.bed.yoda.controller.compact_versions
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail(
            "armed stateless machinery perturbed the region schedule\n"
            + first_divergence_report(name, golden, recorder),
            pytrace=False,
        )
    assert outcome.trace_digest == golden["engine_digest"]
    assert outcome.ok == golden["outcome_ok"]
    assert outcome.failed_over == golden["failed_over"]
