"""Exporters: Prometheus-style text exposition and JSON snapshots.

Both walk the process-wide weak registry index
(:func:`repro.sim.metrics.all_registries`), so exporting needs no plumbing:
any ``MetricRegistry`` a testbed created is visible until it is garbage
collected.  Histograms are exported from their running aggregates and
quantile sketch, so export works identically before and after a histogram
spills its raw samples.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from repro.obs.plane import OBS
from repro.sim.metrics import MetricRegistry, all_registries

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

EXPORT_QUANTILES = (0.5, 0.9, 0.99)


def _sanitize(name: str) -> str:
    """Prometheus metric names allow [a-zA-Z0-9_:] only."""
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def render_prometheus() -> str:
    """Text exposition format: one block per metric, labelled by registry."""
    lines: List[str] = []
    for reg in all_registries():
        label = f'{{registry="{reg.name}"}}'
        for name in sorted(reg.counters):
            metric = f"repro_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}{label} {reg.counters[name].value}")
        for name in sorted(reg.gauges):
            metric = f"repro_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric}{label} {reg.gauges[name].value}")
        for name in sorted(reg.histograms):
            hist = reg.histograms[name]
            metric = f"repro_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} summary")
            if hist.count:
                for q in EXPORT_QUANTILES:
                    lines.append(
                        f'{metric}{{registry="{reg.name}",quantile="{q}"}} '
                        f"{hist.quantile(q)}"
                    )
            lines.append(f"{metric}_count{label} {hist.count}")
            lines.append(f"{metric}_sum{label} "
                         f"{hist.count and hist.mean() * hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_snapshot(reg: MetricRegistry) -> Dict[str, Any]:
    """One registry's metrics as plain data."""
    out: Dict[str, Any] = {"name": reg.name}
    if reg.counters:
        out["counters"] = {n: c.value for n, c in sorted(reg.counters.items())}
    if reg.gauges:
        out["gauges"] = {n: g.value for n, g in sorted(reg.gauges.items())}
    if reg.histograms:
        out["histograms"] = {
            n: {
                "count": h.count,
                "mean": h.mean() if h.count else None,
                "min": h.min() if h.count else None,
                "max": h.max() if h.count else None,
                "p50": h.percentile(50.0) if h.count else None,
                "p90": h.percentile(90.0) if h.count else None,
                "p99": h.percentile(99.0) if h.count else None,
                "spilled": h.spilled,
            }
            for n, h in sorted(reg.histograms.items())
        }
    if reg.series:
        out["timeseries"] = {
            n: {"samples": len(s),
                "last": s.values[-1] if s.values else None}
            for n, s in sorted(reg.series.items())
        }
    return out


def obs_snapshot() -> Dict[str, Any]:
    """The observability plane's own state as plain data: span-duration
    sketches, profiler rows, and flight-recorder occupancy."""
    plane = OBS
    tracer = plane.tracer
    return {
        "enabled": plane.enabled,
        "spans": {
            "retained": len(tracer.spans),
            "dropped": tracer.dropped,
            "sketches": {
                f"{comp or '-'}:{name}": sketch.to_dict()
                for (comp, name), sketch in sorted(tracer.sketches.items())
            },
        },
        "profiler": {
            "total_cpu_seconds": plane.profiler.total(),
            "rows": plane.profiler.rows(),
        },
        "flight_recorders": {
            name: {
                "buffered": len(plane.recorders.recorder(name)),
                "total": plane.recorders.recorder(name).total,
            }
            for name in plane.recorders.components()
        },
    }


def render_json() -> str:
    """Everything -- metric registries plus the obs plane -- as one JSON
    document."""
    doc = {
        "schema": "repro-obs/v1",
        "registries": [registry_snapshot(r) for r in all_registries()],
        "obs": obs_snapshot(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
