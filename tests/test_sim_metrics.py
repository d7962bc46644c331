"""Counters, gauges, histograms, time series."""

import math
import random
import struct

import pytest

from repro.sim.metrics import Counter, Gauge, Histogram, MetricRegistry, TimeSeries
from repro.sim.sketch import QuantileSketch


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g", initial=10.0)
        g.add(-3)
        g.set(5)
        assert g.value == 5


class TestHistogram:
    def test_median_of_odd_count(self):
        h = Histogram()
        h.extend([3, 1, 2])
        assert h.median() == 2

    def test_percentile_interpolates(self):
        h = Histogram()
        h.extend([0, 10])
        assert h.percentile(50) == 5.0
        assert h.percentile(25) == 2.5

    def test_percentile_bounds(self):
        h = Histogram()
        h.extend([5, 1, 9])
        assert h.percentile(0) == 1
        assert h.percentile(100) == 9

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_out_of_range_percentile_raises(self):
        h = Histogram()
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_mean_min_max(self):
        h = Histogram()
        h.extend([2.0, 4.0, 6.0])
        assert h.mean() == 4.0
        assert h.min() == 2.0
        assert h.max() == 6.0

    def test_observe_keeps_percentiles_correct_after_unsorted_insert(self):
        h = Histogram()
        h.extend([5, 1])
        assert h.median() == 3.0
        h.observe(0)
        assert h.min() == 0

    def test_single_sample(self):
        h = Histogram()
        h.observe(7.0)
        assert h.percentile(90) == 7.0


class ListHistogram:
    """The reference: a histogram keeping its raw samples in a list, read
    the way ``Histogram`` reads them, spilling to a sketch past the cap."""

    def __init__(self, max_samples):
        self.max_samples = max_samples
        self.values = []
        self.spilled = False
        self.count = 0
        self.sum = 0.0
        self.sketch = QuantileSketch()

    def observe(self, value):
        self.count += 1
        self.sum += value
        self.sketch.add(value)
        if not self.spilled:
            self.values.append(value)
            if len(self.values) > self.max_samples:
                self.values, self.spilled = [], True

    def exact(self):
        if self.spilled:
            raise RuntimeError("spilled")
        return sorted(self.values)

    def percentile(self, p):
        if self.spilled:
            return self.sketch.percentile(p)
        xs = self.exact()
        if len(xs) == 1:
            return xs[0]
        rank = (p / 100.0) * (len(xs) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(xs) - 1)
        frac = rank - lo
        return xs[lo] * (1 - frac) + xs[hi] * frac

    def quantile(self, q):
        return self.percentile(q * 100.0)

    def samples(self):
        return self.exact()

    def mean(self):
        if self.spilled:
            return self.sum / self.count
        return math.fsum(self.values) / len(self.values)


def bits(result):
    """A read as comparable bits: every number as its double (so -0.0,
    nan and inf compare exactly), an exception as its type."""
    try:
        value = result()
    except (RuntimeError, ValueError) as exc:
        return type(exc)
    if isinstance(value, list):
        return [bits(lambda: v) for v in value]
    if isinstance(value, tuple):
        return tuple(bits(lambda: v) for v in value)
    return struct.pack("<d", float(value))


def reads(h):
    return (
        [bits(lambda p=p: h.percentile(p)) for p in range(101)]
        + [bits(lambda q=q: h.quantile(q / 8)) for q in range(9)]
        + [bits(h.samples), bits(h.mean)]
    )


class TestHistogramAgainstAList:
    """Samples kept as doubles read exactly as samples kept in a list."""

    CAP = 300

    @staticmethod
    def stream(seed, n):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            kind = rng.random()
            if kind < 0.35:
                out.append(rng.uniform(-100.0, 100.0))
            elif kind < 0.6:
                out.append(rng.randint(-50, 50))
            elif kind < 0.8 and out:
                out.append(rng.choice(out))  # a duplicate, int or float
            elif kind < 0.85:
                out.append(rng.choice((math.inf, -math.inf)))
            elif kind < 0.9:
                out.append(rng.choice((0, 0.0, -0.0, 1e-13, 2**40)))
            else:
                out.append(rng.expovariate(10.0))
        return out

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_read_matches_before_and_after_a_spill(self, seed):
        h, ref = Histogram(max_samples=self.CAP), ListHistogram(self.CAP)
        checkpoints = {1, 2, 3, 17, 150, self.CAP, self.CAP + 1, self.CAP + 40}
        for i, value in enumerate(self.stream(seed, self.CAP + 40), 1):
            h.observe(value)
            ref.observe(value)
            if i in checkpoints:
                assert h.spilled == ref.spilled == (i > self.CAP)
                assert reads(h) == reads(ref), f"after {i} samples"

    def test_a_finite_stream_matches_too(self):
        # without infinities every mean is a number, not fsum's refusal
        h, ref = Histogram(max_samples=self.CAP), ListHistogram(self.CAP)
        for value in self.stream(4, 200):
            if math.isfinite(value):
                h.observe(value)
                ref.observe(value)
        assert isinstance(h.mean(), float)
        assert reads(h) == reads(ref)

    def test_one_observed_int_reads_back_as_its_float(self):
        h = Histogram()
        h.observe(7)
        assert h.percentile(90) == 7 and isinstance(h.percentile(90), float)
        assert h.samples() == [7.0]

    @pytest.mark.parametrize("value", ["3", None, [1.0], object()])
    def test_observe_of_a_non_number_raises_type_error(self, value):
        with pytest.raises(TypeError):
            Histogram().observe(value)


class TestTimeSeries:
    def test_record_and_lookup(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        ts.record(2.0, 3.0)
        assert ts.items() == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_rejects_out_of_order(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        w = ts.window(2.0, 5.0)
        assert w.times == [2.0, 3.0, 4.0]

    def test_mean_and_max(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        ts.record(1, 3.0)
        assert ts.mean() == 2.0
        assert ts.max() == 3.0


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        reg = MetricRegistry("node")
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.timeseries("t") is reg.timeseries("t")

    def test_metrics_are_namespaced(self):
        reg = MetricRegistry("node")
        assert reg.counter("a").name == "node.a"
