"""The table arithmetic of ``benchmarks/pairs.py`` on canned run results."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = pairs  # dataclasses resolve annotations through it
_spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pkts_per_wall_s", "unit": "pkts/s", "better": "higher",
     "bound": 0.25},
    {"name": "sim_fetch_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.02},
]


def _run(wall_s, pkts, p50=141.5, failed=0):
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "pkts_per_wall_s": {"value": pkts, "unit": "pkts/s"},
                        "sim_fetch_p50_ms": {"value": p50, "unit": "ms"}}}


def _by_name(rows):
    return {row.name: row for row in rows}


def test_quartiles_interpolate_between_ranks():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain():
    parent = [_run(10.0 + 0.1 * i, 1000.0 + 10 * i) for i in range(10)]
    change = [_run(8.0 + 0.1 * i, 1250.0 + 10 * i) for i in range(10)]
    rows = _by_name(pairs.summarise(END_TO_END, parent, change))
    pkts = rows["pkts_per_wall_s"]
    assert pkts.parent == (1022.5, 1045.0, 1067.5)
    assert pkts.change == (1272.5, 1295.0, 1317.5)
    assert pkts.ratio == pytest.approx(1295.0 / 1045.0)
    assert (pkts.wins, pkts.ties, pkts.pairs) == (10, 0, 10)
    assert pkts.beyond_parent_iqr and pkts.gain and not pkts.regressed
    assert pkts.spread_limit == pytest.approx(0.25 * 1045.0)
    assert pkts.spread_ok
    wall = rows["wall_s"]  # lower is better: the change wins by reading less
    assert wall.wins == 10 and wall.gain and wall.ratio < 1.0
    p50 = rows["sim_fetch_p50_ms"]
    assert p50.identical and p50.ties == 10 and not p50.gain
    table = pairs.render("conn_churn", list(rows.values()))
    assert "**`conn_churn`** (10 pairs)" in table
    assert "| `sim_fetch_p50_ms` (ms) | 141.500 [141.500, 141.500] " \
           "| 141.500 [141.500, 141.500] | 1.000 | identical ×10 |" in table
    assert "| `pkts_per_wall_s` (pkts/s) | 1,045 [1,022, 1,068] " \
           "| 1,295 [1,272, 1,318] | 1.239 | 10/10 | 250 / 45 " \
           "| 45 / 261 |" in table


def test_inside_the_parents_spread_is_not_a_gain():
    """Eight wins of ten and medians closer than the parent's own
    quartiles: unresolved, as PR 16 reported ``conn_churn``."""
    parent = [_run(1.0, v) for v in
              (900, 950, 1000, 1050, 1100, 1150, 1200, 1250, 1300, 1350)]
    change = [_run(1.0, v) for v in
              (950, 1000, 1050, 1100, 1150, 1200, 1250, 1300, 1290, 1340)]
    row = _by_name(pairs.summarise(END_TO_END, parent, change))[
        "pkts_per_wall_s"]
    assert row.wins == 8 and row.change_is_better
    assert not row.beyond_parent_iqr and not row.gain and not row.regressed
    assert any("unresolved" in line for line in pairs.verdicts([row]))


def test_a_regression_and_a_spread_over_the_bound():
    parent = [_run(1.0, 1000.0 + i) for i in range(10)]
    slower = [_run(1.0, 700.0 + i) for i in range(10)]
    row = _by_name(pairs.summarise(END_TO_END, parent, slower))[
        "pkts_per_wall_s"]
    assert row.regressed and not row.gain and row.wins == 0
    # the check that refused PR 16's first submission: the change's IQR is
    # held against bound x the *parent's* median, whatever its own median
    wide = [_run(1.0, 1300.0 + 100.0 * i) for i in range(10)]
    row = _by_name(pairs.summarise(END_TO_END, parent, wide))[
        "pkts_per_wall_s"]
    assert row.gain and not row.spread_ok
    assert row.change[2] - row.change[0] == pytest.approx(450.0)
    assert row.spread_limit == pytest.approx(0.25 * 1004.5)
    assert "**over**" in pairs.render("w", [row])


def test_ties_count_for_neither_side():
    parent = [_run(1.0, 1000.0)] * 5 + [_run(1.0, 1000.0 + i)
                                        for i in range(5)]
    change = [_run(1.0, 1000.0)] * 5 + [_run(1.0, 2000.0 + i)
                                        for i in range(5)]
    row = _by_name(pairs.summarise(END_TO_END, parent, change))[
        "pkts_per_wall_s"]
    assert (row.wins, row.ties) == (5, 5) and not row.identical
    assert row.gain  # 5 of the 5 decided pairs


def test_failed_share_and_bad_input():
    runs = [_run(1.0, 1.0, failed=2), _run(1.0, 1.0)]
    assert pairs.failed_share(runs) == (2, 200)
    with pytest.raises(ValueError):
        pairs.summarise(END_TO_END, runs, runs[:1])
    with pytest.raises(ValueError):
        pairs.summarise(END_TO_END, [], [])


def test_reads_the_repositorys_benchmark_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = {"attempted": 1, "failed": 0, "metrics": {
        m["name"]: {"value": 1.0, "unit": m["unit"]}
        for m in spec["end_to_end"]}}
    rows = pairs.summarise(spec["end_to_end"], [run], [run])
    assert [r.name for r in rows] == [m["name"] for m in spec["end_to_end"]]
    assert all(r.identical for r in rows)
