"""Zero-perturbation gate for the overload-control plane.

A constructed-but-idle qos plane (default :class:`QosConfig`: admission
disabled, breakers and limiter armed but never driven to act) must be
invisible to the packet schedule: every hot-path hook is a pure
computation over ``loop.now()`` -- no events scheduled, no randomness
drawn.  This suite replays pinned golden-trace scenarios with qos
enabled and demands bit-identical digests against the same golden files
``tests/test_golden_traces.py`` pins for the qos-less runs.

Like the obs-enabled twin in the main golden suite, these tests never
skip: a missing golden file is a hard failure.
"""

import dataclasses

import pytest

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.qos.config import QosConfig
from tests.test_golden_traces import (
    GOLDEN_SEED,
    SCENARIO_VARIANTS,
    GoldenRecorder,
    first_divergence_report,
    load_golden,
)

# the cheap half of the pinned corpus -- enough to cover SYN admission,
# selection via BreakerView, kv latency_listener, and instance failure
QOS_GOLDEN_SCENARIOS = [
    "store-partition",
    "instance-flap",
    "probe-loss",
]


@pytest.mark.parametrize("name", QOS_GOLDEN_SCENARIOS)
def test_idle_qos_is_bit_identical(name):
    golden = load_golden(name)
    assert golden is not None, (
        f"no golden file for scenario {name!r}; generate with "
        f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
        f"tests/test_golden_traces.py first"
    )
    base = get_scenario(name)
    scenario = dataclasses.replace(
        base,
        yoda=dataclasses.replace(base.yoda, qos=QosConfig()),  # armed but neutral
        **SCENARIO_VARIANTS[name],
    )
    recorder = GoldenRecorder()
    engine = ScenarioEngine(scenario, lb="yoda", seed=GOLDEN_SEED)
    engine.build().network.add_trace(recorder)
    outcome = engine.run()
    # the plane really was constructed on every instance
    assert all(inst.qos is not None for inst in engine.bed.yoda.instances)
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail(
            "idle qos perturbed the packet schedule\n"
            + first_divergence_report(name, golden, recorder),
            pytrace=False,
        )
    assert outcome.trace_digest == golden["engine_digest"]
