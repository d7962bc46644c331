"""Golden-trace equivalence suite: the correctness gate for fast-path work.

Every optimization of the simulator core (event loop, packet pooling,
network caches) must be *provably behavior-identical*: with the
same seed, the full packet schedule of a chaos scenario must not move by a
single event.  This suite pins SHA-256 digests of the packet schedule for a
corpus of chaos scenarios (including the store-repair-heavy
``rolling-store-restart`` and ``crash-heal-crash``) into
``tests/golden/*.json`` and fails loudly -- with a readable diff of the
first diverging event -- when any run no longer matches.

The golden files also store per-block checkpoint digests (every
``CHECKPOINT_INTERVAL`` records) plus sampled boundary lines, so a
divergence deep inside a 100k-record trace is localized to a small window
and reported with the actual events in that window.

Regenerating (ONLY when a change is *meant* to alter the packet schedule,
e.g. a new scenario or an intentional protocol change -- never to make an
"optimization" pass):

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

This suite intentionally has no skip paths: a missing or unreadable golden
file is a hard failure, so CI can never silently lose the gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, List, Optional

import pytest

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.sim.tracing import TraceRecord
from tests.trace_tools import canonical_trace_line

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_SCHEMA = "golden-trace/v1"
CHECKPOINT_INTERVAL = 100  # records per checkpoint digest
BOUNDARY_EVERY = 2000  # keep one full record line every this many records
HEAD_LINES = 100  # full record lines kept from the start of the trace
GOLDEN_SEED = 2016

# The pinned corpus: built-in scenarios, shrunk (fewer clients / smaller
# objects / shorter drains) so the whole suite runs in tens of seconds
# while still exercising every fault primitive: partitions, loss,
# duplication, probe loss, flapping, gray CPU, store restarts and the
# repair machinery.  Fault *schedules* are the built-ins' own.
SCENARIO_VARIANTS: Dict[str, Dict] = {
    "store-partition": dict(clients=2, object_count=3, duration=8.0, drain=6.0),
    "asym-loss": dict(clients=2, object_count=3, duration=8.0, drain=8.0),
    "store-death-midhandshake": dict(clients=2, object_count=3,
                                     duration=6.0, drain=6.0),
    "instance-flap": dict(clients=2, object_count=3, duration=7.0, drain=6.0),
    "probe-loss": dict(clients=2, object_count=3, duration=6.0, drain=6.0),
    "rolling-store-restart": dict(clients=2, object_bytes=1_500_000, drain=8.0),
    "crash-heal-crash": dict(clients=2, object_bytes=1_500_000, drain=8.0),
}


# Every verdict of each pinned run, in report order: (invariant, checked,
# violation_count).  The digest proves the packets did not move; this proves
# the invariants judged them as before.  crash-heal-crash's counts date from
# the commit before the packet invariants shared one flow-audit table; the
# rest from the commit before the invariants shared one base class.
PINNED_AUDIT_COUNTS = {
    "asym-loss": [
        ("storage-before-ack", 14, 0),
        ("acked-byte-loss", 1865, 0),
        ("flow-conservation", 7, 0),
        ("snat-leak", 3, 0),
        ("no-accepted-request-dropped", 7, 0),
        ("replication-factor", 125, 0),
    ],
    "crash-heal-crash": [
        ("storage-before-ack", 18, 0),
        ("acked-byte-loss", 11082, 0),
        ("flow-conservation", 9, 0),
        ("snat-leak", 3, 0),
        ("no-accepted-request-dropped", 9, 0),
        ("replication-factor", 172, 0),
    ],
    "instance-flap": [
        ("storage-before-ack", 44, 0),
        ("acked-byte-loss", 5100, 0),
        ("flow-conservation", 22, 0),
        ("snat-leak", 2, 0),
        ("no-accepted-request-dropped", 22, 0),
        ("replication-factor", 84, 0),
    ],
    "probe-loss": [
        ("storage-before-ack", 60, 0),
        ("acked-byte-loss", 6300, 0),
        ("flow-conservation", 30, 0),
        ("snat-leak", 3, 0),
        ("no-accepted-request-dropped", 30, 0),
        ("replication-factor", 190, 0),
    ],
    "rolling-store-restart": [
        ("storage-before-ack", 16, 0),
        ("acked-byte-loss", 8788, 0),
        ("flow-conservation", 8, 0),
        ("snat-leak", 3, 0),
        ("no-accepted-request-dropped", 8, 0),
        ("replication-factor", 159, 0),
    ],
    "store-death-midhandshake": [
        ("storage-before-ack", 42, 0),
        ("acked-byte-loss", 4411, 0),
        ("flow-conservation", 21, 0),
        ("snat-leak", 3, 0),
        ("no-accepted-request-dropped", 21, 0),
        ("replication-factor", 82, 0),
    ],
    "store-partition": [
        ("storage-before-ack", 72, 0),
        ("acked-byte-loss", 7560, 0),
        ("flow-conservation", 36, 0),
        ("snat-leak", 3, 0),
        ("no-accepted-request-dropped", 36, 0),
        ("replication-factor", 127, 0),
    ],
}


class GoldenRecorder:
    """A packet-trace tap that folds every record into SHA-256 digests.

    Keeps: the full-trace digest, a checkpoint digest per
    ``CHECKPOINT_INTERVAL``-record block (for localizing divergence), and
    every rendered line in memory (for reporting the actual events around
    the first diverging block).
    """

    def __init__(self):
        self._full = hashlib.sha256()
        self._block = hashlib.sha256()
        self.checkpoints: List[str] = []
        self.lines: List[str] = []

    def record(self, rec: TraceRecord) -> None:
        line = canonical_trace_line(rec)
        data = line.encode()
        self._full.update(data)
        self._block.update(data)
        self.lines.append(line)
        if len(self.lines) % CHECKPOINT_INTERVAL == 0:
            self.checkpoints.append(self._block.hexdigest()[:16])
            self._block = hashlib.sha256()

    @property
    def count(self) -> int:
        return len(self.lines)

    def digest(self) -> str:
        return self._full.hexdigest()

    def boundary_lines(self) -> Dict[str, str]:
        return {str(i): self.lines[i]
                for i in range(0, len(self.lines), BOUNDARY_EVERY)}


def golden_engine(name: str):
    """One pinned scenario variant, not yet run: (recorder, engine)."""
    scenario = dataclasses.replace(get_scenario(name),
                                   **SCENARIO_VARIANTS[name])
    recorder = GoldenRecorder()
    engine = ScenarioEngine(scenario, lb="yoda", seed=GOLDEN_SEED)
    engine.build().network.add_trace(recorder)
    return recorder, engine


def run_golden_scenario(name: str):
    """Run one pinned scenario variant and return (recorder, outcome)."""
    recorder, engine = golden_engine(name)
    return recorder, engine.run()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def write_golden(name: str, recorder: GoldenRecorder, outcome) -> None:
    doc = {
        "schema": GOLDEN_SCHEMA,
        "scenario": name,
        "seed": GOLDEN_SEED,
        "overrides": SCENARIO_VARIANTS[name],
        "digest": recorder.digest(),
        "engine_digest": outcome.trace_digest,
        "record_count": recorder.count,
        "checkpoint_interval": CHECKPOINT_INTERVAL,
        "checkpoints": recorder.checkpoints,
        "head_lines": recorder.lines[:HEAD_LINES],
        "boundary_every": BOUNDARY_EVERY,
        "boundary_lines": recorder.boundary_lines(),
    }
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(name), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def first_divergence_report(name: str, golden: dict,
                            recorder: GoldenRecorder) -> str:
    """A readable report locating the first diverging event."""
    out = [
        f"golden trace mismatch for scenario {name!r} (seed {GOLDEN_SEED})",
        f"  expected digest {golden['digest']}",
        f"  actual   digest {recorder.digest()}",
        f"  expected {golden['record_count']} records, "
        f"got {recorder.count}",
    ]
    # exact first-event diff while inside the stored head window
    head: List[str] = golden.get("head_lines", [])
    for i, expected in enumerate(head):
        actual = recorder.lines[i] if i < len(recorder.lines) else "<missing>"
        if actual != expected:
            out.append(f"  first diverging event is record #{i}:")
            out.append(f"    expected: {expected}")
            out.append(f"    actual:   {actual}")
            for j in range(max(0, i - 3), i):
                out.append(f"    context:  #{j} {recorder.lines[j]}")
            return "\n".join(out)
    # otherwise localize via checkpoint digests
    exp_cp: List[str] = golden.get("checkpoints", [])
    act_cp = recorder.checkpoints
    interval = golden.get("checkpoint_interval", CHECKPOINT_INTERVAL)
    block = None
    for k in range(min(len(exp_cp), len(act_cp))):
        if exp_cp[k] != act_cp[k]:
            block = k
            break
    if block is None:
        if len(exp_cp) == len(act_cp):
            out.append("  divergence is in the trailing partial block")
            block = len(act_cp)
        else:
            block = min(len(exp_cp), len(act_cp))
            out.append("  one trace is a strict prefix of the other")
    lo, hi = block * interval, (block + 1) * interval
    out.append(f"  first diverging event lies in records [{lo}, {hi})")
    boundaries = golden.get("boundary_lines", {})
    anchor = max((int(i) for i in boundaries if int(i) <= lo), default=None)
    if anchor is not None:
        out.append(f"  last pinned record before the window (#{anchor}):")
        out.append(f"    expected: {boundaries[str(anchor)]}")
        if anchor < len(recorder.lines):
            out.append(f"    actual:   {recorder.lines[anchor]}")
    out.append("  actual events at the start of the window:")
    for i in range(lo, min(hi, lo + 12, len(recorder.lines))):
        out.append(f"    #{i} {recorder.lines[i]}")
    out.append("  (regen ONLY for intentional schedule changes: "
               "GOLDEN_UPDATE=1 pytest tests/test_golden_traces.py)")
    return "\n".join(out)


def load_golden(name: str) -> Optional[dict]:
    path = golden_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


class TestGoldenCorpusShape:
    """The corpus itself is part of the contract."""

    def test_at_least_six_scenarios_pinned(self):
        assert len(SCENARIO_VARIANTS) >= 6

    def test_required_store_repair_scenarios_pinned(self):
        assert "rolling-store-restart" in SCENARIO_VARIANTS
        assert "crash-heal-crash" in SCENARIO_VARIANTS

    def test_every_pinned_scenario_has_a_golden_file(self):
        missing = [n for n in SCENARIO_VARIANTS if load_golden(n) is None]
        assert not missing, (
            f"golden files missing for {missing}; generate with "
            f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
            f"tests/test_golden_traces.py"
        )

    def test_every_pinned_scenario_has_its_verdicts_pinned(self):
        assert set(PINNED_AUDIT_COUNTS) == set(SCENARIO_VARIANTS)

    def test_no_stale_golden_files(self):
        on_disk = {f[:-5] for f in os.listdir(GOLDEN_DIR)
                   if f.endswith(".json")}
        assert on_disk == set(SCENARIO_VARIANTS), (
            "tests/golden/ out of sync with SCENARIO_VARIANTS"
        )


@pytest.mark.parametrize("name", sorted(SCENARIO_VARIANTS))
def test_golden_trace(name):
    golden = load_golden(name)
    update = os.environ.get("GOLDEN_UPDATE") == "1"
    if golden is None and not update:
        pytest.fail(
            f"no golden file for scenario {name!r}; generate with "
            f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
            f"tests/test_golden_traces.py"
        )
    recorder, outcome = run_golden_scenario(name)
    if update:
        write_golden(name, recorder, outcome)
        return
    assert golden["schema"] == GOLDEN_SCHEMA
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail(first_divergence_report(name, golden, recorder),
                    pytrace=False)
    # the run digest (the network's packed captures) is pinned too: it
    # must agree with what the chaos CLI reports for the same run
    assert outcome.trace_digest == golden["engine_digest"]
    assert [(v.invariant, v.checked, v.violation_count)
            for v in outcome.verdicts] == PINNED_AUDIT_COUNTS[name]


def test_golden_trace_with_the_loop_advanced_in_slices():
    """A loop advanced in 0.25 s slices fires what one continuous ``run``
    fires (``tests/test_sim_events.py`` holds the loop to that on random
    schedules); here a whole pinned scenario -- faults, timers re-armed
    across a slice end, the drain -- is driven that way from outside."""
    name = "store-partition"
    golden = load_golden(name)
    recorder, engine = golden_engine(name)
    loop = engine.build().loop

    def run_in_slices(duration: float) -> None:
        end = loop.now() + duration
        while loop.now() < end:
            loop.run(until=min(loop.now() + 0.25, end))

    engine.bed.run = run_in_slices
    outcome = engine.run()
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail("slicing the run moved the packet schedule:\n"
                    + first_divergence_report(name, golden, recorder),
                    pytrace=False)
    assert outcome.trace_digest == golden["engine_digest"]


@pytest.mark.parametrize("name", sorted(SCENARIO_VARIANTS))
def test_golden_trace_obs_enabled(name):
    """Zero-perturbation gate for the observability plane: the packet
    schedule with tracing ENABLED must be bit-identical to the pinned
    (tracing-disabled) digest.

    Runs after ``test_golden_trace`` in file order, so under GOLDEN_UPDATE
    the plain test regenerates the file first and this test still
    *verifies* -- it never skips (CI greps for skips in this suite).
    """
    from repro.obs import OBS

    golden = load_golden(name)
    assert golden is not None, (
        f"no golden file for scenario {name!r}; generate with "
        f"GOLDEN_UPDATE=1 first"
    )
    OBS.enable()
    try:
        recorder, outcome = run_golden_scenario(name)
        spans_recorded = len(OBS.tracer.spans)
        flight_events = sum(r.total for r in OBS.recorders._recorders.values())
    finally:
        OBS.disable()
    # the plane must have been genuinely live, not a disabled no-op
    assert spans_recorded > 0
    assert flight_events > 0  # at minimum, the injected faults are noted
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail(
            "observability plane perturbed the packet schedule:\n"
            + first_divergence_report(name, golden, recorder),
            pytrace=False,
        )
    assert outcome.trace_digest == golden["engine_digest"]
