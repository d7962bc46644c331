"""Committed numbers match the documents that quote them.

``BENCH_elastic.json`` is what ``python -m repro run elastic`` wrote last;
EXPERIMENTS.md quotes the full run (40 simulated s, seed 2016).  A
CI-sized ``--quick`` run committed over it, or a table edited by hand,
fails here.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# | leg | inst-hours | peak inst | SLO | scale events | invariants |
_ROW = re.compile(
    r"^\| (static-peak|autoscaled|floor-no-autoscale) \| (\d+) \| (\d+) "
    r"\| ([01]\.\d{3}) \| (\d+)[^|]*\| (ok|BROKEN) \|$", re.MULTILINE)


def test_elastic_table_is_the_committed_full_run():
    doc = json.loads((ROOT / "BENCH_elastic.json").read_text())
    assert doc["mode"] == "full", (
        f"BENCH_elastic.json holds a {doc['mode']!r} run; EXPERIMENTS.md "
        f"quotes `python -m repro run elastic` (no --quick)")
    assert doc["seed"] == 2016
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Elastic provisioning"):]
    rows = _ROW.findall(section)
    legs = {leg["leg"]: leg for leg in doc["legs"]}
    assert [r[0] for r in rows] == [
        "static-peak", "autoscaled", "floor-no-autoscale"] == list(legs)
    for name, hours, peak, slo, events, invariants in rows:
        leg = legs[name]
        assert int(hours) == round(leg["modeled_instance_hours"]), name
        assert int(peak) == leg["peak_instances"], name
        assert float(slo) == round(leg["slo_attainment"], 3), name
        assert int(events) == leg["scale_events"], name
        assert (invariants == "ok") == leg["invariants_ok"], name
    summary = doc["summary"]
    assert f"**{summary['cost_ratio_auto_vs_static']:.2f}×**" in section
    assert f"peak-to-mean {doc['peak_to_mean']:.2f}" in section
