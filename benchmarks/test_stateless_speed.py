"""Stateless fast-path dispatch benchmarks.

Measures the two quantities the compact dispatch mode trades on, in both
modes, and pins the headline ratios:

- ``syn_pps``: connection-setup dispatch rate (the L4-LB headline metric
  -- connections/sec).  Stateless mode skips the ring hash, the flow-entry
  allocation and the dict store, so it must win here.
- ``established_pps``: per-packet rate on an already-pinned flow.  The
  stateful path is a single hot dict hit -- near the interpreter floor --
  so stateless only has to stay in the same league, not win.
- ``bytes_per_flow``: dispatch-state memory per live flow sampled from a
  real streaming testbed (mux pins + durable flow records vs one
  flow-count-independent compact table).

Results are written to ``BENCH_stateless.json`` at the repo root with the
same merge semantics and run envelope (``sha``, ``cpus``, ``python``,
``generated_at``) as ``BENCH_core.json``; the EXPERIMENTS.md stateless
table quotes the committed file and ``tests/test_docs_match.py`` compares
the two.  Run with:

    PYTHONPATH=src python -m pytest benchmarks/test_stateless_speed.py -q
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest
from conftest import run_envelope

from repro.experiments import fig_stateless

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_stateless.json")
SCHEMA = "bench-stateless/v1"

_metrics: Dict[str, Dict] = {}


def _note(name: str, value: float, unit: str,
          higher_is_better: bool = True) -> None:
    _metrics[name] = {
        "value": round(value, 3),
        "unit": unit,
        "higher_is_better": higher_is_better,
    }
    print(f"\n  [bench] {name}: {value:,.1f} {unit}")


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    yield
    doc = {"schema": SCHEMA, "metrics": {}}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as fh:
                old = json.load(fh)
            if old.get("schema") == SCHEMA:
                doc = old
        except (OSError, ValueError):
            pass
    doc.update(run_envelope())
    doc["metrics"].update(_metrics)
    with open(BENCH_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class TestDispatchSpeed:
    def test_syn_and_established_pps(self):
        speed = fig_stateless.run_speed()
        stateful, stateless = speed["stateful"], speed["stateless"]
        _note("stateful.syn_pps", stateful["syn_pps"], "packets/sec")
        _note("stateless.syn_pps", stateless["syn_pps"], "packets/sec")
        _note("stateful.established_pps", stateful["established_pps"],
              "packets/sec")
        _note("stateless.established_pps", stateless["established_pps"],
              "packets/sec")
        syn_ratio = stateless["syn_pps"] / stateful["syn_pps"]
        est_ratio = stateless["established_pps"] / stateful["established_pps"]
        _note("syn_pps_ratio", syn_ratio, "x")
        _note("established_pps_ratio", est_ratio, "x")
        # the headline claim: connection setup materially faster, the
        # established path in the same league (stateful's hot dict hit is
        # the CPython floor; parity is not on offer)
        assert syn_ratio >= 1.2, f"SYN dispatch speedup lost: {syn_ratio:.2f}x"
        assert est_ratio >= 0.6, (
            f"established-path regression: {est_ratio:.2f}x"
        )
        # stateless SYN dispatch keeps no per-flow state at all
        assert stateless["flow_table_entries"] == 0
        assert stateful["flow_table_entries"] > 0


class TestDispatchMemory:
    def test_bytes_per_flow(self):
        stateful = fig_stateless.run(seed=2016, stateless=False).summary
        stateless = fig_stateless.run(seed=2016, stateless=True).summary
        _note("stateful.bytes_per_flow", stateful["bytes_per_flow"],
              "bytes/flow", higher_is_better=False)
        _note("stateless.bytes_per_flow", stateless["bytes_per_flow"],
              "bytes/flow", higher_is_better=False)
        ratio = stateful["bytes_per_flow"] / stateless["bytes_per_flow"]
        _note("memory_ratio", ratio, "x")
        assert ratio >= 2.0, f"memory-per-flow reduction lost: {ratio:.2f}x"
        # both legs carried the same live load when sampled
        assert stateful["live_flows_at_sample"] > 0
        assert stateless["live_flows_at_sample"] > 0
