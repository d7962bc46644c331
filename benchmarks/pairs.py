#!/usr/bin/env python3
"""The ten-pair protocol: parent against change, one table.

    python3 benchmarks/pairs.py --parent DIR --change DIR \\
        --workload conn_churn --pairs 10 --first-seed 4001

Runs each checkout's own ``benchmarks/e2e/run.py --workload W --seed S
--seconds <run_seconds of the parent's BENCHMARK.json> --trace 0``, one
process at a time, pair ``i`` on seed ``first-seed + i`` with the side
that goes first alternating, and prints the table EXPERIMENTS.md quotes:
per end-to-end metric the median and quartiles of each side, the ratio of
medians, the pairs the change wins, the distance between the medians
against the parent's inter-quartile distance (a gain is claimed only
beyond it, and with at least nine wins in ten), and the change's
inter-quartile distance against ``bound x`` the *parent's* median (the
spread check: it tightens as a change gets faster).  Every run made is
printed under the table.  Nothing is written and no network is used.

The arithmetic is :func:`summarise`, a pure function of the two lists of
run results (``tests/test_bench_pairs.py`` feeds it canned ones).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

MIN_WIN_SHARE = 0.9  # of the pairs that are not ties


@dataclass
class Row:
    """One end-to-end metric over all pairs."""

    name: str
    unit: str
    parent: Tuple[float, float, float]  # Q1, median, Q3
    change: Tuple[float, float, float]
    ratio: float  # change median / parent median
    wins: int  # pairs in which the change reads better
    ties: int
    pairs: int
    beyond_parent_iqr: bool  # medians further apart than the parent's Q3 - Q1
    change_is_better: bool  # by the medians, in the metric's direction
    regressed: bool  # change median worse than the parent's beyond the bound
    spread_limit: float  # bound x the parent's median
    spread_ok: bool  # change's Q3 - Q1 within spread_limit

    @property
    def identical(self) -> bool:
        """Every pair reads the same on both sides (simulated metrics)."""
        return self.ties == self.pairs

    @property
    def gain(self) -> bool:
        """The rule a claimed gain has to meet."""
        decided = self.pairs - self.ties
        return (self.change_is_better and self.beyond_parent_iqr
                and decided > 0 and self.wins >= MIN_WIN_SHARE * decided)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), linear interpolation between closest ranks."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(end_to_end: List[Dict[str, Any]],
              parent_runs: List[Dict[str, Any]],
              change_runs: List[Dict[str, Any]]) -> List[Row]:
    """``end_to_end`` is that list of BENCHMARK.json; a run is the JSON
    object ``run.py`` prints; run ``i`` of each side is pair ``i``."""
    if not parent_runs or len(parent_runs) != len(change_runs):
        raise ValueError("need the same, non-zero number of runs per side")
    rows = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [run["metrics"][name]["value"] for run in parent_runs]
        c = [run["metrics"][name]["value"] for run in change_runs]
        pq, cq = quartiles(p), quartiles(c)
        ties = sum(1 for a, b in zip(p, c) if a == b)
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        worse_by = (pq[1] - cq[1]) if higher else (cq[1] - pq[1])
        limit = metric["bound"] * abs(pq[1])
        rows.append(Row(
            name=name, unit=metric["unit"], parent=pq, change=cq,
            ratio=cq[1] / pq[1] if pq[1] else float("nan"),
            wins=wins, ties=ties, pairs=len(p),
            beyond_parent_iqr=abs(cq[1] - pq[1]) > pq[2] - pq[0],
            change_is_better=worse_by < 0,
            regressed=worse_by > limit,
            spread_limit=limit, spread_ok=cq[2] - cq[0] <= limit))
    return rows


def failed_share(runs: List[Dict[str, Any]]) -> Tuple[int, int]:
    """(failed, attempted) summed over the runs of one side."""
    return (sum(run["failed"] for run in runs),
            sum(run["attempted"] for run in runs))


# digits that separate two runs of a metric, by its unit
_FORMATS = {"pkts/s": ",.0f", "fetches/s": ",.1f", "MiB": ".1f"}


def _num(value: float, unit: str) -> str:
    return format(value, _FORMATS.get(unit, ",.3f"))


def _spread(q: Tuple[float, float, float], unit: str) -> str:
    return f"{_num(q[1], unit)} [{_num(q[0], unit)}, {_num(q[2], unit)}]"


def render(workload: str, rows: List[Row]) -> str:
    """The markdown table, one line per metric."""
    pairs = rows[0].pairs
    out = [
        f"**`{workload}`** ({pairs} pairs)",
        "",
        "| metric | parent median [Q1, Q3] | change median [Q1, Q3] "
        "| change/parent | wins | medians apart / parent IQR "
        "| change IQR / (bound × parent median) |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for r in rows:
        wins = (f"identical ×{r.pairs}" if r.identical
                else f"{r.wins}/{r.pairs}")
        u = r.unit
        apart = abs(r.change[1] - r.parent[1])
        out.append(
            f"| `{r.name}` ({u}) | {_spread(r.parent, u)} "
            f"| {_spread(r.change, u)} | {r.ratio:.3f} | {wins} "
            f"| {_num(apart, u)} / {_num(r.parent[2] - r.parent[0], u)} "
            f"| {_num(r.change[2] - r.change[0], u)} / "
            f"{_num(r.spread_limit, u)}"
            f"{'' if r.spread_ok else ' **over**'} |")
    return "\n".join(out)


def verdicts(rows: List[Row]) -> List[str]:
    out = []
    for r in rows:
        if r.identical:
            continue
        if r.regressed:
            out.append(f"{r.name}: REGRESSED beyond its bound "
                       f"(change/parent {r.ratio:.3f})")
        elif r.gain:
            out.append(f"{r.name}: gain (x{r.ratio:.3f}, {r.wins}/{r.pairs}, "
                       f"medians beyond the parent's IQR)")
        else:
            out.append(f"{r.name}: unresolved or unchanged "
                       f"(x{r.ratio:.3f}, {r.wins}/{r.pairs})")
        if not r.spread_ok:
            out.append(f"{r.name}: change's IQR exceeds bound x parent median")
    return out


# ------------------------------------------------------------------ running --
def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> Dict[str, Any]:
    """One run of ``checkout``'s own driver; its last stdout line is the
    result object."""
    done = subprocess.run(
        [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair i runs seed first-seed + i on both sides")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{k}={_num(v['value'], v['unit'])}"
                for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)

    rows = summarise(spec["end_to_end"], runs["parent"], runs["change"])
    print(render(args.workload, rows))
    print()
    for side in ("parent", "change"):
        failed, attempted = failed_share(runs[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    for line in verdicts(rows):
        print(line)
    print()
    print("every run (pair, seed, side, metrics):")
    for i in range(args.pairs):
        for side in ("parent", "change"):
            values = {k: v["value"]
                      for k, v in runs[side][i]["metrics"].items()}
            print(json.dumps({"pair": i, "seed": args.first_seed + i,
                              "side": side, **values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
