"""Smoke test of the end-to-end benchmark at tiny durations.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly:

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

IMPORT_S = run._import_simulator()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# long enough for one instance crash and one store crash in the crash pair
TINY_SECONDS = 2.0


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload: str, trace: bool):
        key = (workload, trace)
        if key not in cache:
            cache[key] = run.measure(workload, 2016, TINY_SECONDS, trace,
                                     IMPORT_S)
        return cache[key]
    return get


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(SPEC["workloads"]) == 4
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(results, workload):
    result = results(workload, True)
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_emits_every_end_to_end_metric(results):
    result = results("conn_churn", False)
    assert result["correct"], result["detail"]["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(result["detail"]["setups_s"]) == run.REPETITIONS


def test_tracer_restores_every_attribute_it_patched():
    import layertrace
    from repro.http.client import HttpFetcher
    from repro.sim.events import EventLoop

    watched = {cls: dict(vars(cls)) for cls in (
        EventLoop, layertrace.Event, layertrace.Host, layertrace.Network,
        layertrace.TcpStack, layertrace.TcpConnection, layertrace.L4Mux,
        layertrace.L4LoadBalancer, layertrace.TcpStore,
        layertrace.ReplicatingKvClient, layertrace.RuleTable,
        layertrace.HttpParser, layertrace.BrowserClient, layertrace.ObsPlane,
        layertrace.ObsTracer, layertrace.SimProfiler,
        layertrace.ScenarioEngine, HttpFetcher)}
    call_at = EventLoop.call_at
    with layertrace.LayerTracer():
        assert EventLoop.call_at is not call_at
        assert HttpFetcher.on_data is not watched[HttpFetcher]["on_data"]
    assert EventLoop.call_at is call_at
    for cls, before in watched.items():
        assert dict(vars(cls)) == before, cls


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_layer_self_times_add_up_to_the_traced_wall_clock(results, workload):
    metrics = {k: v["value"]
               for k, v in results(workload, True)["metrics"].items()}
    attributed = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    wall = metrics["bench.traced_wall_s"]
    assert attributed + metrics["bench.unattributed_s"] == pytest.approx(
        wall, rel=0.02)
    assert metrics["bench.unattributed_s"] <= 0.10 * wall


def test_hooks_cost_nothing_unless_audited(results):
    for workload in run.WORKLOAD_NAMES:
        metrics = results(workload, True)["metrics"]
        hooks = metrics["obs.self_s"]["value"] + metrics["chaos.self_s"]["value"]
        if workload == "crash_audited":
            assert hooks > 0
        else:
            assert hooks == 0


def test_crash_pair_runs_the_same_simulation(results):
    plain = results("crash_recovery", True)["detail"]["fingerprint"]
    audited = results("crash_audited", True)["detail"]["fingerprint"]
    assert plain["tx_packets"] == audited["tx_packets"]
    assert plain["fetches_ok"] == audited["fetches_ok"]
    assert audited["trace_digest"]
    recovered = results("crash_recovery", True)["metrics"]
    assert recovered["core.flows_recovered"]["value"] > 0
