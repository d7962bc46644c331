"""Committed numbers match the documents that quote them.

``BENCH_elastic.json`` is what ``python -m repro run elastic`` wrote last;
EXPERIMENTS.md quotes the full run (40 simulated s, seed 2016).  A
CI-sized ``--quick`` run committed over it, or a table edited by hand,
fails here.  ``BENCH_core.json`` is what ``pytest
benchmarks/test_core_speed.py`` wrote last; the fifth column of the
"Simulator core fast path" table quotes it, so the file cannot age under
the table again (it sat four data-path PRs behind it).
``BENCH_stateless.json`` is what ``pytest benchmarks/test_stateless_speed.py``
wrote last, under the same envelope; the stateless dispatch table quotes
it.  ROADMAP's "Open items" header quotes the size of ``src/``; it is held
to the tree, so the line count a roadmap target is stated against cannot
drift from it, and so is its sentence naming the classes over 600 lines.
"""

import ast
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


# | benchmark | before | after (PR 3) | speedup | PR 18 | vs before |
_CORE_ROW = re.compile(
    r"^\| ([a-z0-9][^|]*?) +\| +[\d,.]+ \| +[\d,.]+ \| +[\d.]+× "
    r"\| +([\d,.]+) \| +([\d.]+)× \|$", re.MULTILINE)
_CORE_METRICS = {
    "scheduler (events/sec)": "scheduler.events_per_sec",
    "cancel churn (ops/sec)": "cancel_churn.ops_per_sec",
    "same-tick dispatch (events/s)": "dispatch.events_per_sec",
    "network echo (packets/sec)": "network.packets_per_sec",
    "fig9-style run (wall seconds)": "fig9_style.wall_seconds",
}


def test_core_table_is_the_committed_run():
    doc = json.loads((ROOT / "BENCH_core.json").read_text())
    for field in ("sha", "cpus", "python", "generated_at"):
        assert doc.get(field), f"BENCH_core.json has no {field!r}"
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Simulator core fast path"):]
    section = section[:section.index("\n## ", 1)]
    rows = {label: (cell, ratio)
            for label, cell, ratio in _CORE_ROW.findall(section)}
    assert set(rows) == set(_CORE_METRICS)
    for label, name in _CORE_METRICS.items():
        cell, ratio = rows[label]
        value = doc["metrics"][name]["value"]
        quoted = (f"{value:.3f}" if name.endswith("wall_seconds")
                  else f"{value:,.0f}")
        assert cell == quoted, f"{label}: table says {cell}, file {quoted}"
        speedup = doc["speedup_vs_baseline"][name]
        assert ratio == f"{speedup:.2f}", (
            f"{label}: table says {ratio}x, file {speedup}")
    assert f"`{doc['sha']}`" in section


# | metric | stateful | stateless | **ratio×** ... |
_STATELESS_ROW = re.compile(
    r"^\| ([a-zA-Z][^|]*?) \| ([\d,]+) \| ([\d,]+) \| \**([\d.]+)×",
    re.MULTILINE)
_STATELESS_METRICS = {
    "dispatch state (bytes/flow)": ("bytes_per_flow", "memory_ratio"),
    "SYN dispatch (pkts/s)": ("syn_pps", "syn_pps_ratio"),
    "established dispatch (pkts/s)": ("established_pps",
                                      "established_pps_ratio"),
}


def test_stateless_table_is_the_committed_run():
    doc = json.loads((ROOT / "BENCH_stateless.json").read_text())
    for field in ("sha", "cpus", "python", "generated_at"):
        assert doc.get(field), f"BENCH_stateless.json has no {field!r}"
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Stateless fast-path dispatch"):]
    section = section[:section.index("\n## ", 1)]
    rows = {label: cells for label, *cells in _STATELESS_ROW.findall(section)}
    assert set(rows) == set(_STATELESS_METRICS)
    metrics = doc["metrics"]
    for label, (name, ratio_name) in _STATELESS_METRICS.items():
        quoted = tuple(f"{metrics[f'{mode}.{name}']['value']:,.0f}"
                       for mode in ("stateful", "stateless"))
        quoted += (f"{metrics[ratio_name]['value']:.2f}",)
        assert tuple(rows[label]) == quoted, (
            f"{label}: table says {rows[label]}, file {quoted}")
    assert f"`{doc['sha']}`" in section


def _open_items_header() -> str:
    text = (ROOT / "ROADMAP.md").read_text()
    header = text[text.index("## Open items"):]
    return header[:header.index("\n- **")]


def test_roadmap_quotes_the_source_size_of_this_tree():
    # the figures `find src -name '*.py' | xargs cat | wc -l` and
    # `find src -name '*.py' | wc -l` print
    files = list((ROOT / "src").rglob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    header = _open_items_header()
    quoted = re.search(r"([\d,]+) source lines in (\d+) files", header)
    assert quoted, "the Open items header no longer states the source size"
    assert (quoted.group(1), quoted.group(2)) == (
        f"{lines:,}", str(len(files))), (
        f"ROADMAP says {quoted.group(0)}; the tree has {lines:,} lines in "
        f"{len(files)} files")


_COUNT_WORDS = ("No", "One", "Two", "Three", "Four", "Five")


def test_roadmap_names_the_classes_over_600_lines():
    # a class's size is end_lineno - lineno + 1 of its ast.ClassDef
    sizes = {}
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                size = node.end_lineno - node.lineno + 1
                if size > 600:
                    sizes[node.name] = size
    quoted = re.search(
        r"(\w+)\s+class(?:es)?\s+(?:is|are)\s+over\s+600\s+lines([^.]*)\.",
        _open_items_header())
    assert quoted, "the Open items header no longer names the classes over 600 lines"
    named = {name: int(size.replace(",", "")) for name, size
             in re.findall(r"`(\w+)`\s+\(([\d,]+)\)", quoted.group(2))}
    assert (quoted.group(1), named) == (_COUNT_WORDS[len(sizes)], sizes), (
        f"ROADMAP says {quoted.group(0)!r}; the tree has {sizes}")
