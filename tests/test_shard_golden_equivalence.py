"""1-shard sharded runs must be bit-identical to the pinned goldens.

One shard is documented as "the plain in-process path untouched", and
this suite is the proof: every pinned chaos scenario
(the single-site corpus *and* the multi-region corpus) run through
``run_scenario_sharded`` -- windowed loop stepping, digest folding, the
whole shard execution shape -- must reproduce the committed golden
digest, record count, and engine digest exactly.  One scenario also runs
``forked=True`` so the result crossing a process boundary is covered.

If these fail but ``test_golden_traces`` passes, the sharded wrapper
changed the simulation; that is always a bug in the shard layer.
"""

from __future__ import annotations

import pytest

from repro.shard import run_scenario_sharded

from tests.test_golden_traces import (
    GOLDEN_SEED,
    SCENARIO_VARIANTS,
    load_golden,
)
from tests.test_region_golden import REGION_VARIANTS
from tests.test_region_golden import load_golden as load_region_golden

# deliberately not aligned with any scenario timing: window boundaries
# must be able to fall anywhere without perturbing the schedule
STEP_WINDOW = 0.37


def _check(result, golden):
    assert golden is not None, "golden file missing; run the golden suites"
    assert result["digest"] == golden["digest"], (
        f"sharded run diverged from golden for {result['scenario']!r}"
    )
    assert result["records"] == golden["record_count"]
    assert result["engine_digest"] == golden["engine_digest"]


@pytest.mark.parametrize("name", sorted(SCENARIO_VARIANTS))
def test_single_site_scenario_matches_golden(name):
    result = run_scenario_sharded(
        name, overrides=SCENARIO_VARIANTS[name], seed=GOLDEN_SEED,
        step_window=STEP_WINDOW)
    _check(result, load_golden(name))


@pytest.mark.parametrize("name", sorted(REGION_VARIANTS))
def test_region_scenario_matches_golden(name):
    spec = REGION_VARIANTS[name]
    result = run_scenario_sharded(
        spec["scenario"], seed=GOLDEN_SEED, step_window=STEP_WINDOW,
        replication=spec["replication"])
    _check(dict(result, scenario=name), load_region_golden(name))


def test_forked_worker_matches_golden():
    """The digest computed inside a shard worker process and shipped back
    over the pipe is the same digest an in-process run produces."""
    name = "probe-loss"
    result = run_scenario_sharded(
        name, overrides=SCENARIO_VARIANTS[name], seed=GOLDEN_SEED,
        step_window=STEP_WINDOW, forked=True)
    _check(result, load_golden(name))
