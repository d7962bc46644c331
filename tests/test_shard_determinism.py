"""Sharded-path determinism inside one interpreter.

The golden suite already pins digests across *commits*; these tests pin
them across *invocations in one process* -- the regression they catch is
leaked module-level state (a pool counter, an RNG, a cached table) that
makes the second run of the same scenario differ from the first.  That
failure mode is invisible to the golden files (each pytest process runs
each scenario once) but fatal to the sharded engine, which runs many
worlds in one interpreter.
"""

from __future__ import annotations

import dataclasses

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.shard import (
    ScaleWorldConfig,
    ShardedRunner,
    make_scale_plan,
    run_scenario_sharded,
    scale_world_builder,
)
from repro.sim.tracing import DigestTrace
from repro.workload.trace import DiurnalConfig

from tests.test_golden_traces import GOLDEN_SEED, SCENARIO_VARIANTS


def _run_chaos_once(name: str, step_window=None):
    scenario = dataclasses.replace(get_scenario(name),
                                   **SCENARIO_VARIANTS[name])
    recorder = DigestTrace(name)
    outcome = ScenarioEngine(scenario, lb="yoda", seed=GOLDEN_SEED,
                             taps=[recorder], step_window=step_window).run()
    return recorder.digest(), recorder.count, outcome.trace_digest


class TestSameInterpreterDeterminism:
    def test_chaos_scenario_twice_same_digest(self):
        first = _run_chaos_once("instance-flap")
        second = _run_chaos_once("instance-flap")
        assert first == second

    def test_windowed_stepping_does_not_change_the_schedule(self):
        """Advancing the loop in shard-sized windows must fire the exact
        same events in the exact same order as one continuous run."""
        continuous = _run_chaos_once("instance-flap")
        windowed = _run_chaos_once("instance-flap", step_window=0.25)
        assert windowed == continuous

    def test_sharded_scenario_runner_twice_same_digest(self):
        first = run_scenario_sharded(
            "probe-loss", overrides=SCENARIO_VARIANTS["probe-loss"],
            seed=GOLDEN_SEED)
        second = run_scenario_sharded(
            "probe-loss", overrides=SCENARIO_VARIANTS["probe-loss"],
            seed=GOLDEN_SEED)
        assert first == second

    def test_multi_shard_world_twice_same_digest(self):
        cfg = ScaleWorldConfig(
            num_cells=2, num_shards=2,
            diurnal=DiurnalConfig(sim_seconds=3.0, sim_fraction=5e-4))
        plan = make_scale_plan(cfg)

        def once():
            runner = ShardedRunner(plan, scale_world_builder(cfg),
                                   mode="inline")
            result = runner.run(3.0)
            return result.digest, result.total_tx_packets, \
                result.cross_shard_packets

        assert once() == once()
