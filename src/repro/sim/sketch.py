"""Streaming quantile sketch (DDSketch-style, relative-error guaranteed).

The observability plane needs per-series latency quantiles at "millions of
users" scale, where keeping every sample (the old ``Histogram`` strategy)
costs O(n) memory and an O(n log n) sort on every read.  This sketch keeps
O(log(max/min) / log(gamma)) integer buckets -- a few hundred for any
realistic latency range -- and answers any quantile with a guaranteed
*relative* error ``alpha``:

    |q_est - q_true| <= alpha * q_true

Buckets are logarithmic: positive value ``v`` lands in bucket
``ceil(log(v) / log(gamma))`` with ``gamma = (1 + alpha) / (1 - alpha)``;
the representative value ``2 * gamma**i / (gamma + 1)`` is within ``alpha``
of every value the bucket covers.  Count, sum, min and max are tracked
exactly.

No dependency on the rest of the simulator: this module is imported by
``repro.sim.metrics`` (the Histogram spill path) and by the observability
plane's tracer (``repro.obs.span``), and must stay leaf-level.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

ALPHA = 0.005  # 0.5 % relative error
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)

# Values with magnitude below this collapse into the zero bucket; for
# sim-time latencies (>= microseconds) this loses nothing.
MIN_TRACKABLE = 1e-12
# Values with magnitude above this, infinities included, collapse into its
# bucket (min and max stay exact), so any float can be added.
MAX_TRACKABLE = 1e300


class QuantileSketch:
    """DDSketch-style log-bucketed quantile estimator, within ``ALPHA``."""

    __slots__ = (
        "_buckets",
        "_neg_buckets",
        "_zero",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self):
        self._buckets: Dict[int, int] = {}
        self._neg_buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------- ingest --
    def add(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value > MIN_TRACKABLE:
            idx = math.ceil(math.log(min(value, MAX_TRACKABLE)) / _LOG_GAMMA)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
        elif value < -MIN_TRACKABLE:
            idx = math.ceil(math.log(min(-value, MAX_TRACKABLE)) / _LOG_GAMMA)
            self._neg_buckets[idx] = self._neg_buckets.get(idx, 0) + 1
        else:
            self._zero += 1

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    # -------------------------------------------------------------- reads --
    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        if not self._count:
            raise ValueError("sketch is empty")
        return self._sum / self._count

    def min(self) -> float:
        if not self._count:
            raise ValueError("sketch is empty")
        return self._min

    def max(self) -> float:
        if not self._count:
            raise ValueError("sketch is empty")
        return self._max

    def _bucket_value(self, idx: int) -> float:
        # midpoint representative: within alpha of every value in bucket idx
        return 2.0 * _GAMMA ** idx / (_GAMMA + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile, ``q`` in [0, 1]."""
        if not self._count:
            raise ValueError("sketch is empty")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} out of range [0, 1]")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = q * (self._count - 1)
        seen = 0
        # negatives (most negative first), then zeros, then positives
        for idx in sorted(self._neg_buckets, reverse=True):
            seen += self._neg_buckets[idx]
            if seen > rank:
                return -self._bucket_value(idx)
        seen += self._zero
        if seen > rank:
            return 0.0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen > rank:
                return self._bucket_value(idx)
        return self._max

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        return self.quantile(p / 100.0)

    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def bucket_count(self) -> int:
        """Number of live buckets -- the memory footprint, in O(1) units."""
        return len(self._buckets) + len(self._neg_buckets) + (1 if self._zero else 0)

    def to_dict(self) -> Dict:
        """JSON-friendly summary (used by the exporters)."""
        out: Dict = {
            "alpha": ALPHA,
            "count": self._count,
            "buckets": self.bucket_count,
        }
        if self._count:
            out.update(
                sum=self._sum,
                min=self._min,
                max=self._max,
                mean=self._sum / self._count,
                quantiles={
                    "p50": self.quantile(0.50),
                    "p90": self.quantile(0.90),
                    "p99": self.quantile(0.99),
                },
            )
        return out

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={ALPHA}, count={self._count}, "
            f"buckets={self.bucket_count})"
        )
