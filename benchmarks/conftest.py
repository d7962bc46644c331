"""Benchmark scaffolding.

Each benchmark regenerates one of the paper's tables/figures and prints
the paper-comparable rows.  ``pytest-benchmark`` measures the wall-clock
of the regeneration itself (rounds=1: these are simulations, not
microbenchmarks).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Optional

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
