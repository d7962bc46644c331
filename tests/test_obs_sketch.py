"""Property tests for the streaming quantile sketch.

The sketch's whole contract is one guarantee: every quantile estimate is
within relative error ``alpha`` of the exact sample quantile.  These tests
assert that bound on seeded uniform, lognormal, and adversarially sorted
streams and on hypothesis-generated streams -- plus the
``Histogram`` spill semantics built on top.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.sketch import ALPHA, QuantileSketch
from repro.sim import metrics
from repro.sim.metrics import Histogram

QUANTILES = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def exact_quantile(sorted_values, q):
    """Nearest-rank-with-interpolation-free reference: the element at
    rank ``q * (n - 1)`` rounded down -- any element within one rank of
    the true quantile satisfies the sketch's guarantee, so the assertion
    checks against the rank-neighbourhood, not one point."""
    rank = q * (len(sorted_values) - 1)
    return sorted_values[int(rank)]


def assert_within_alpha(sketch, values, note=""):
    values = sorted(values)
    n = len(values)
    for q in QUANTILES:
        est = sketch.quantile(q)
        # the DDSketch guarantee is rank-respecting relative accuracy:
        # the estimate is within alpha (relative) of SOME sample whose
        # rank is within 1 of the target rank
        rank = q * (n - 1)
        lo = max(0, int(math.floor(rank)) - 1)
        hi = min(n - 1, int(math.ceil(rank)) + 1)
        candidates = values[lo:hi + 1]
        ok = any(
            abs(est - v) <= ALPHA * abs(v) + 1e-12
            for v in candidates
        )
        assert ok, (
            f"{note} q={q}: estimate {est} not within alpha="
            f"{ALPHA} of any of ranks [{lo},{hi}] = {candidates}"
        )


class TestSketchStreams:
    def test_uniform_stream(self):
        rng = random.Random(2016)
        values = [rng.uniform(0.001, 10.0) for _ in range(20_000)]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert_within_alpha(sketch, values, "uniform")

    def test_lognormal_stream(self):
        rng = random.Random(2016)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(20_000)]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert_within_alpha(sketch, values, "lognormal")

    def test_adversarial_sorted_stream(self):
        # monotone geometric ramp, fed in sorted order: the worst case for
        # naive reservoir/streaming schemes
        values = [1.0005 ** i * 1e-6 for i in range(20_000)]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert_within_alpha(sketch, values, "sorted-ramp")
        sketch_rev = QuantileSketch()
        sketch_rev.extend(reversed(values))
        assert_within_alpha(sketch_rev, values, "reverse-sorted-ramp")

    def test_negative_and_zero_values(self):
        rng = random.Random(7)
        values = [rng.uniform(-5.0, 5.0) for _ in range(5_000)] + [0.0] * 100
        sketch = QuantileSketch()
        sketch.extend(values)
        assert_within_alpha(sketch, values, "mixed-sign")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.floats(min_value=1e-9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=400,
    ))
    def test_hypothesis_positive_streams(self, values):
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.count == len(values)
        assert_within_alpha(sketch, values, "hypothesis")

    def test_exact_invariants(self):
        rng = random.Random(3)
        values = [rng.expovariate(1.0) for _ in range(1_000)]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.min() == min(values)
        assert sketch.max() == max(values)
        assert sketch.count == len(values)
        assert sketch.mean() == pytest.approx(sum(values) / len(values))
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)

    def test_empty_sketch_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(0.5)


class TestHistogramSpill:
    def test_exact_below_cap(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_RAW_SAMPLES", 1000)
        hist = Histogram("h")
        rng = random.Random(5)
        values = [rng.random() for _ in range(1000)]
        hist.extend(values)
        assert not hist.spilled
        assert hist.samples() == sorted(values)

    def test_spill_switches_to_sketch(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_RAW_SAMPLES", 1000)
        hist = Histogram("h")
        rng = random.Random(5)
        values = [rng.lognormvariate(0, 1) for _ in range(5_000)]
        hist.extend(values)
        assert hist.spilled
        # aggregates stay exact across the spill
        assert hist.count == 5_000
        assert hist.min() == min(values)
        assert hist.max() == max(values)
        assert hist.mean() == pytest.approx(sum(values) / len(values))
        # quantiles fall back to the sketch, within its guarantee
        values.sort()
        for q in (0.1, 0.5, 0.9, 0.99):
            est = hist.quantile(q)
            ref = exact_quantile(values, q)
            assert abs(est - ref) <= 3 * ALPHA * abs(ref)

    def test_spilled_exact_apis_raise(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_RAW_SAMPLES", 10)
        hist = Histogram("h")
        hist.extend(range(1, 50))
        assert hist.spilled
        with pytest.raises(RuntimeError, match="needs them"):
            hist.samples()
