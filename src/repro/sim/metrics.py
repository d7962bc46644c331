"""Metrics primitives used by every subsystem and experiment.

The experiments in the paper report medians, P90s, CDFs, utilizations and
time series; these classes collect exactly those without pulling in heavy
dependencies on hot paths.

``Histogram`` is sketch-backed: every observation feeds a streaming
DDSketch-style quantile sketch (O(1) memory, guaranteed relative error),
and raw samples are additionally retained only up to ``MAX_RAW_SAMPLES``.
Below that cap, percentiles are exact -- so existing experiments and
tests see bit-identical numbers.  Past the cap the raw samples are
discarded ("spilled") and quantile reads fall back to the sketch;
``samples()`` then raises rather than silently degrade.  Raw samples are kept as C doubles (``array('d')``:
8 bytes each, not a boxed float plus a list slot), the values float
arithmetic on them uses anyway, so every read returns what a list of the
same samples gives -- as floats, an observed int included.
"""

from __future__ import annotations

import math
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.sim.sketch import QuantileSketch


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase; use Gauge for ups and downs")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that can go up and down (e.g. live connections)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


# Raw samples retained before a histogram spills to its sketch.
# High enough that every paper experiment stays exact; low enough that a
# "millions of users" run is bounded.
MAX_RAW_SAMPLES = 65_536


class Histogram:
    """Latency/value distribution: exact at small n, sketch-backed at scale."""

    __slots__ = (
        "name",
        "_samples",
        "_sorted",
        "_spilled",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_sketch",
    )

    def __init__(self, name: str = ""):
        self.name = name
        self._samples = array("d")
        self._sorted = True
        self._spilled = False
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._sketch.add(value)
        if self._spilled:
            return
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)
        if len(self._samples) > MAX_RAW_SAMPLES:
            self._samples = array("d")
            self._sorted = True
            self._spilled = True

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples = array("d", sorted(self._samples))
            self._sorted = True

    def _require_exact(self, what: str) -> None:
        if self._spilled:
            raise RuntimeError(
                f"histogram {self.name!r} spilled its raw samples after "
                f"{MAX_RAW_SAMPLES}; {what} needs them")

    @property
    def spilled(self) -> bool:
        """True once raw samples were discarded and reads are sketch-backed."""
        return self._spilled

    @property
    def sketch(self) -> QuantileSketch:
        return self._sketch

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float:
        """Percentile with ``p`` in [0, 100]: exact (linear interpolation)
        until the histogram spills, sketch-estimated after."""
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        if self._spilled:
            return self._sketch.percentile(p)
        self._ensure_sorted()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = (p / 100.0) * (len(self._samples) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(self._samples) - 1)
        frac = rank - lo
        return self._samples[lo] * (1 - frac) + self._samples[hi] * frac

    def quantile(self, q: float) -> float:
        """Quantile with ``q`` in [0, 1] (same backing as ``percentile``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} out of range [0, 1]")
        return self.percentile(q * 100.0)

    def median(self) -> float:
        return self.percentile(50.0)

    def p90(self) -> float:
        return self.percentile(90.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not self._spilled:
            return math.fsum(self._samples) / len(self._samples)
        return self._sum / self._count

    def min(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._min

    def max(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._max

    def samples(self) -> List[float]:
        """A sorted copy of the raw samples."""
        self._require_exact("samples()")
        self._ensure_sorted()
        return list(self._samples)


class TimeSeries:
    """(time, value) samples, e.g. per-instance CPU utilization over time."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("TimeSeries samples must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def items(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with start <= time < end."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if start <= t < end:
                out.record(t, v)
        return out

    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return math.fsum(self.values) / len(self.values)

    def max(self) -> float:
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return max(self.values)


# Live registries, for the obs exporters: every MetricRegistry
# registers itself weakly, so "export all metrics in the process" needs no
# plumbing and dead testbeds disappear on their own.
_REGISTRIES: "weakref.WeakSet[MetricRegistry]" = weakref.WeakSet()


def all_registries() -> List["MetricRegistry"]:
    """Every live registry, name-sorted (creation order breaks ties)."""
    return sorted(_REGISTRIES, key=lambda r: r.name)


@dataclass(eq=False)
class MetricRegistry:
    """A namespace of metrics, one per component instance."""

    name: str = ""
    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _REGISTRIES.add(self)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(f"{self.name}.{name}")
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(f"{self.name}.{name}")
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(f"{self.name}.{name}")
        return self.histograms[name]

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(f"{self.name}.{name}")
        return self.series[name]
