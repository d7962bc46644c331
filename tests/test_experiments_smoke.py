"""Smoke tests: every experiment module runs at tiny scale and produces
the expected row/summary structure.  The full-scale shape assertions live
in benchmarks/."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments import (
    fig6,
    fig9,
    fig10,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig_overload,
    fig_stateless,
    table1,
)


def test_fig6_smoke():
    result = fig6.run(rule_counts=(500, 1000), lookups_per_size=100)
    assert len(result.rows) == 2
    assert result.rows[1]["p90_latency_ms"] > result.rows[0]["p90_latency_ms"]


def test_fig9_smoke():
    result = fig9.run(rate=40.0, duration=3.0, num_instances=2)
    schemes = [r["scheme"] for r in result.rows]
    assert schemes == ["no-LB baseline", "yoda", "haproxy"]
    assert all(r["total_ms"] > 100 for r in result.rows)  # ~RTT-dominated


def test_fig9_cpu_smoke():
    result = fig9.run_cpu(rate=150.0, duration=2.0)
    assert len(result.rows) == 2
    assert result.summary["yoda_over_haproxy_cpu"] > 1.0


def test_fig10_smoke():
    result = fig10.run(client_reqs_per_server=(2_000,), num_servers=2,
                       duration=0.1)
    assert len(result.rows) == 2  # 1 and 2 replicas
    assert all(r["set_p50_ms"] is not None for r in result.rows)


def test_fig12_scenario_smoke():
    outcome = fig12.run_scenario("yoda", retries=0, processes=2,
                                 num_instances=4, fail_count=1,
                                 fail_at=4.0, duration=12.0)
    assert outcome.results
    assert outcome.failed_instances
    assert outcome.broken_fraction == 0.0


def test_fig12_timeline_smoke():
    result = fig12.run_timeline(object_bytes=500_000)
    assert not result.summary["flow_broken"]


def test_fig13_smoke():
    result = fig13.run(initial_instances=2, spare_instances=1,
                       base_rate_per_instance=60.0, duration=12.0,
                       step_at=5.0)
    assert result.summary["broken_requests"] == 0
    assert result.rows


def test_fig14_smoke():
    result = fig14.run(rate=40.0, duration=40.0, sample_interval=4.0)
    assert result.summary["broken_requests"] == 0
    assert result.summary["phase3_srv0_drained"] == 0.0


def test_fig15_smoke():
    result = fig15.run(seed=1)
    assert len(result.rows) >= 100
    assert result.summary["mean_ratio"] > 1.0


def test_fig16_smoke():
    result = fig16.run(trace=_small_trace(), pool_size=80, interval_stride=8)
    assert len(result.rows) == 3
    assert result.summary["limit_migrated_median_pct"] <= \
        result.summary["nolimit_migrated_median_pct"] + 1e-9


def _small_trace():
    from repro.sim.random import SeededRng
    from repro.workload.trace import TraceConfig, generate_trace

    return generate_trace(SeededRng(3), TraceConfig(num_vips=25, intervals=24,
                                                    total_rules_target=8000))


def test_fig16_solve_s_times_greedy_and_the_emptying_step(monkeypatch):
    """``solve_s`` covers the whole solve.  On a clock that only the two
    stages move -- 1 s per greedy run, 10 s per emptying step -- a round
    reads 11 s, plus 1 s for each relaxed delta greedy could not meet."""
    from repro.core.assignment import update

    clock = [0.0]

    def taking(seconds, stage):
        def timed(*args, **kwargs):
            clock[0] += seconds
            return stage(*args, **kwargs)
        return timed

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(update, "solve_greedy",
                        taking(1.0, update.solve_greedy))
    monkeypatch.setattr(update, "compact_assignment",
                        taking(10.0, update.compact_assignment))
    rows = fig16.run(trace=_small_trace(), pool_size=80, interval_stride=8).rows
    assert [r["solve_s"] for r in rows] == [
        11.0 + r["delta_relaxations"] for r in rows]


def test_fig16_emptying_step_spends_no_relaxed_budget(monkeypatch):
    """Where delta had to be relaxed for greedy to place every VIP, the
    emptying step migrates no more than that placement did; with the
    whole relaxed budget it migrated 28.6% against 24.8% in round 1 here."""
    from dataclasses import replace

    from repro.core.assignment import plan_update, solve_greedy

    relaxed = []

    def spy(problem, limit):
        outcome = plan_update(problem, limit=limit)
        if outcome.relaxations:
            relaxed.append((problem, outcome))
        return outcome

    monkeypatch.setattr(fig16, "plan_update", spy)
    fig16.run(trace=_small_trace(), pool_size=80, interval_stride=8)
    assert relaxed
    for problem, outcome in relaxed:
        placed = solve_greedy(replace(
            problem, migration_limit=outcome.effective_migration_limit))
        assert (outcome.migrated_fraction
                <= placed.migrated_fraction(problem) + 1e-9)


def test_fig16_rows_do_not_depend_on_the_hash_seed():
    """Limit mode ranks a set of old instances by their connections, and
    equal counts by name: the same run prints the same rows under any
    PYTHONHASHSEED (``solve_s`` is wall time and left out)."""
    code = ("import json; from repro.experiments import fig16; "
            "rows = fig16.run(seed=2016, pool_size=170, interval_stride=36).rows; "
            "print(json.dumps([{k: v for k, v in r.items() if k != 'solve_s'} "
            "for r in rows]))")
    src = Path(__file__).resolve().parents[1] / "src"
    printed = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        timeout=120).stdout for seed in ("0", "1")]
    assert len(json.loads(printed[0])) == 4
    assert printed[0] == printed[1]


def test_fig_overload_smoke():
    result = fig_overload.run_ablation(quick=True)
    assert result.summary["contrast"] == "holds"
    assert result.summary["goodput_ratio_qos"] >= 0.9
    assert result.summary["goodput_ratio_no_qos"] < \
        result.summary["goodput_ratio_qos"]
    assert result.summary["drain_failures_qos"] == 0
    by_variant = {r["variant"]: r for r in result.rows}
    assert by_variant["qos"]["syns_shed"] > 0
    assert by_variant["no-qos"]["syns_shed"] == 0


def test_fig_stateless_smoke():
    result = fig_stateless.run_ablation(quick=True)
    assert result.summary["contrast"] == "holds"
    assert result.summary["memory_ratio"] >= 2.0
    assert result.summary["syn_pps_ratio"] >= 1.2
    assert result.summary["established_pps_ratio"] >= 0.6
    assert result.summary["crash_stateful_ok"]
    assert not result.summary["crash_stateless_ok"]
    by_variant = {r["variant"]: r for r in result.rows}
    assert by_variant["stateless"]["bytes_per_flow"] < \
        by_variant["stateful"]["bytes_per_flow"]
    assert by_variant["stateless"]["syn_pps"] > by_variant["stateful"]["syn_pps"]


def test_table1_single_site_smoke():
    site = table1.SITES[0]
    result = table1.run(sites=[site], include_yoda=False)
    assert len(result.rows) == 1
    assert "timed-out" in result.rows[0]["impact_with_proxy_lb"]


def test_fig_elastic_smoke(tmp_path):
    from repro.experiments import fig_elastic

    bench = tmp_path / "bench.json"
    result = fig_elastic.run(sim_seconds=6.0, base_rps=30.0,
                             static_instances=3, floor_instances=2,
                             bench_path=str(bench))
    assert [r["leg"] for r in result.rows] == [
        "static-peak", "autoscaled", "floor-no-autoscale"]
    for key in ("cost_ratio_auto_vs_static", "slo_autoscaled",
                "invariants_ok", "contrast"):
        assert key in result.summary
    # neither the sizing EXPERIMENTS.md quotes nor the CI one
    assert json.loads(bench.read_text())["mode"] == "custom"


def test_fig_elastic_ablation_smoke(tmp_path):
    from repro.experiments import fig_elastic

    result = fig_elastic.run(sim_seconds=6.0, base_rps=30.0,
                             static_instances=3, floor_instances=2,
                             autoscale=False,
                             bench_path=str(tmp_path / "bench.json"))
    assert [r["leg"] for r in result.rows] == ["floor-no-autoscale"]
    assert "ablation_blows_slo" in result.summary
