"""Result analysis helpers: statistics and text-table rendering."""

from repro.analysis.report import render_table
from repro.analysis.stats import mean, median, percentile

__all__ = ["render_table", "median", "mean", "percentile"]
