"""Golden traces for the multi-region scenarios (and the replication
ablation).

Same machinery as ``test_golden_traces`` -- SHA-256 over the canonical
packet schedule at seed 2016, checkpoint digests for localization -- but a
separate corpus in ``tests/golden_region/``: the single-site suite asserts
its directory matches its own variants exactly, so the two-region pins
live beside it, not inside it.

Two extra things are pinned here that the single-site suite does not do:

- the **ablation** (``region-kill-noreplication``) is a first-class corpus
  entry -- breaking every established stream must stay deterministic, not
  just breaking *some* -- and
- each golden file records the expected ``outcome.ok`` verdict, so a
  regression that keeps the schedule but flips the result (or vice versa)
  is caught either way.

Regenerate (intentional schedule changes only)::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_region_golden.py
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import pytest

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine

from tests.test_body_integrity import wrong_streams
from tests.test_golden_traces import (
    GOLDEN_SCHEMA,
    GOLDEN_SEED,
    GoldenRecorder,
    first_divergence_report,
)

REGION_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_region")

# corpus entry -> (library scenario, replication flag).  The scenarios run
# at their library defaults: these are exactly the runs the chaos CLI and
# test_region_failover exercise.
REGION_VARIANTS: Dict[str, Dict] = {
    "region-kill": {"scenario": "region-kill", "replication": True},
    "region-kill-noreplication": {"scenario": "region-kill",
                                  "replication": False},
    "wan-partition": {"scenario": "wan-partition", "replication": True},
    "region-gray-failure": {"scenario": "region-gray-failure",
                            "replication": True},
}

# every verdict of each run, in report order: (invariant, checked,
# violation_count), recorded at the commit before the invariants shared one
# base class.  The ablation fails the three flow invariants 6/6.
REGION_VERDICTS = {
    "region-gray-failure": [
        ("storage-before-ack", 192, 0),
        ("acked-byte-loss", 19582, 0),
        ("flow-conservation", 96, 0),
        ("snat-leak", 7, 0),
        ("no-accepted-request-dropped", 96, 0),
        ("replication-factor", 484, 0),
        ("established-flows-survive-region-failover", 0, 0),
        ("no-split-brain-promotion", 1, 0),
    ],
    "region-kill": [
        ("storage-before-ack", 18, 0),
        ("acked-byte-loss", 396, 0),
        ("flow-conservation", 6, 0),
        ("snat-leak", 4, 0),
        ("no-accepted-request-dropped", 6, 0),
        ("replication-factor", 413, 0),
        ("established-flows-survive-region-failover", 6, 0),
        ("no-split-brain-promotion", 1, 0),
    ],
    "region-kill-noreplication": [
        ("storage-before-ack", 12, 0),
        ("acked-byte-loss", 168, 0),
        ("flow-conservation", 6, 6),
        ("snat-leak", 4, 0),
        ("no-accepted-request-dropped", 6, 6),
        ("replication-factor", 120, 0),
        ("established-flows-survive-region-failover", 6, 6),
        ("no-split-brain-promotion", 1, 0),
    ],
    "wan-partition": [
        ("storage-before-ack", 222, 0),
        ("acked-byte-loss", 22730, 0),
        ("flow-conservation", 111, 0),
        ("snat-leak", 7, 0),
        ("no-accepted-request-dropped", 111, 0),
        ("replication-factor", 507, 0),
        ("established-flows-survive-region-failover", 0, 0),
        ("no-split-brain-promotion", 1, 0),
    ],
}


def run_region_golden(name: str):
    spec = REGION_VARIANTS[name]
    recorder = GoldenRecorder()
    engine = ScenarioEngine(get_scenario(spec["scenario"]), lb="yoda",
                            seed=GOLDEN_SEED, replication=spec["replication"])
    engine.build().network.add_trace(recorder)
    outcome = engine.run()
    assert wrong_streams(engine.fleet.results) == []
    return recorder, outcome


def golden_path(name: str) -> str:
    return os.path.join(REGION_GOLDEN_DIR, f"{name}.json")


def load_golden(name: str) -> Optional[dict]:
    path = golden_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def write_golden(name: str, recorder: GoldenRecorder, outcome) -> None:
    spec = REGION_VARIANTS[name]
    doc = {
        "schema": GOLDEN_SCHEMA,
        "scenario": spec["scenario"],
        "replication": spec["replication"],
        "seed": GOLDEN_SEED,
        "digest": recorder.digest(),
        "engine_digest": outcome.trace_digest,
        "record_count": recorder.count,
        "checkpoint_interval": 100,
        "checkpoints": recorder.checkpoints,
        "head_lines": recorder.lines[:100],
        "boundary_every": 2000,
        "boundary_lines": recorder.boundary_lines(),
        "outcome_ok": outcome.ok,
        "streams_completed": outcome.streams_completed,
        "failed_over": outcome.failed_over,
    }
    os.makedirs(REGION_GOLDEN_DIR, exist_ok=True)
    with open(golden_path(name), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


class TestRegionGoldenCorpusShape:
    def test_ablation_is_pinned(self):
        assert "region-kill-noreplication" in REGION_VARIANTS

    def test_every_variant_has_a_golden_file(self):
        missing = [n for n in REGION_VARIANTS if load_golden(n) is None]
        assert not missing, (
            f"golden files missing for {missing}; generate with "
            f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
            f"tests/test_region_golden.py"
        )

    def test_no_stale_golden_files(self):
        on_disk = {f[:-5] for f in os.listdir(REGION_GOLDEN_DIR)
                   if f.endswith(".json")}
        assert on_disk == set(REGION_VARIANTS), (
            "tests/golden_region/ out of sync with REGION_VARIANTS"
        )

    def test_every_variant_has_its_verdicts_pinned(self):
        assert set(REGION_VERDICTS) == set(REGION_VARIANTS)

    def test_ablation_digest_differs_from_replicated_run(self):
        """The two region-kill pins must be genuinely different runs."""
        with_repl = load_golden("region-kill")
        without = load_golden("region-kill-noreplication")
        assert with_repl and without
        assert with_repl["digest"] != without["digest"]
        assert with_repl["outcome_ok"] is True
        assert without["outcome_ok"] is False


@pytest.mark.parametrize("name", sorted(REGION_VARIANTS))
def test_region_golden_trace(name):
    golden = load_golden(name)
    update = os.environ.get("GOLDEN_UPDATE") == "1"
    if golden is None and not update:
        pytest.fail(
            f"no golden file for region scenario {name!r}; generate with "
            f"GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest "
            f"tests/test_region_golden.py"
        )
    recorder, outcome = run_region_golden(name)
    if update:
        write_golden(name, recorder, outcome)
        return
    assert golden["schema"] == GOLDEN_SCHEMA
    if (recorder.digest() != golden["digest"]
            or recorder.count != golden["record_count"]):
        pytest.fail(first_divergence_report(name, golden, recorder),
                    pytrace=False)
    assert outcome.trace_digest == golden["engine_digest"]
    # schedule-identical must also mean result-identical
    assert outcome.ok == golden["outcome_ok"]
    assert outcome.streams_completed == golden["streams_completed"]
    assert outcome.failed_over == golden["failed_over"]
    assert [(v.invariant, v.checked, v.violation_count)
            for v in outcome.verdicts] == REGION_VERDICTS[name]
