"""Benchmark scaffolding.

Each benchmark regenerates one of the paper's tables/figures and prints
the paper-comparable rows.  ``pytest-benchmark`` measures the wall-clock
of the regeneration itself (rounds=1: these are simulations, not
microbenchmarks).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

# this session's regenerated tables; placed by pytest_configure
_results_file: Optional[Path] = None


def pytest_configure(config) -> None:
    """Start this session's results file under pytest's cache dir (a
    temp dir when the cache plugin is off) -- never inside the tree."""
    global _results_file
    cache = getattr(config, "cache", None)
    base = (Path(cache.mkdir("bench-results")) if cache is not None
            else Path(tempfile.mkdtemp(prefix="bench-results-")))
    _results_file = base / "latest_results.txt"
    _results_file.write_text("")


def pytest_terminal_summary(terminalreporter) -> None:
    if _results_file is not None and _results_file.stat().st_size:
        terminalreporter.write_line(
            f"regenerated tables written to {_results_file}")


def _git_sha() -> str:
    """HEAD, suffixed ``-dirty`` when the tracked tree the numbers came from
    differs from it (a change's numbers are measured before its commit
    exists)."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=REPO_ROOT, text=True, check=True, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_envelope() -> Dict[str, object]:
    """What a committed ``BENCH_*.json`` says about the run it holds: which
    tree, on what, when."""
    return {
        "sha": _git_sha(),
        "cpus": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a whole-experiment function exactly once and return its
    result (pytest-benchmark insists on measuring *something*; one round
    of the full simulation is the honest unit here)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def show(result) -> None:
    """Print the paper-comparable rows and persist them, so a plain
    ``pytest benchmarks/ --benchmark-only`` run (which captures stdout)
    still leaves the regenerated tables on disk."""
    text = result.render()
    print()
    print(text)
    if _results_file is not None:
        with open(_results_file, "a") as fh:
            fh.write(text + "\n\n")
