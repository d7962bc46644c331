"""Human-readable rendering of what the observability plane collected.

The centrepiece is the request waterfall: one trace's spans laid out on a
shared time axis, children indented under their parents -- the view that
turns "this request took 240 ms" into *where* those 240 ms went (TCPStore
writes? the rule scan? the backend handshake?).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.plane import OBS
from repro.obs.span import Span

WATERFALL_WIDTH = 48


def _depths(spans: List[Span]) -> Dict[int, int]:
    """span_id -> tree depth within one trace (orphans sit at depth 0)."""
    by_id = {s.span_id: s for s in spans}
    depths: Dict[int, int] = {}

    def depth_of(span: Span) -> int:
        cached = depths.get(span.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        d = 0 if parent is None else depth_of(parent) + 1
        depths[span.span_id] = d
        return d

    for span in spans:
        depth_of(span)
    return depths


def render_waterfall(spans: List[Span]) -> str:
    """One trace's spans as an indented text waterfall."""
    if not spans:
        return "(empty trace)"
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    t0 = min(s.start for s in spans)
    t1 = max((s.end if s.end is not None else s.start) for s in spans)
    extent = (t1 - t0) or 1e-9
    depths = _depths(spans)
    label_width = max(
        len("  " * depths[s.span_id] + f"{s.name} [{s.component or '-'}]")
        for s in spans
    )
    lines = [
        f"trace {spans[0].trace_id}: {len(spans)} spans, "
        f"{extent * 1e3:.2f} ms total"
    ]
    for s in spans:
        label = "  " * depths[s.span_id] + f"{s.name} [{s.component or '-'}]"
        lo = round(WATERFALL_WIDTH * (s.start - t0) / extent)
        if s.end is None:
            bar = " " * lo + "?"
            dur = "   open"
        else:
            hi = round(WATERFALL_WIDTH * (s.end - t0) / extent)
            bar = " " * lo + "#" * max(1, hi - lo)
            dur = f"{(s.end - s.start) * 1e3:7.2f}"
        lines.append(f"  {label:<{label_width}} |{bar:<{WATERFALL_WIDTH + 1}}| {dur} ms")
    return "\n".join(lines)


def _span_summary() -> str:
    tracer = OBS.tracer
    if not tracer.sketches:
        return "(no spans recorded)"
    lines = [
        f"{'component:span':<38} {'count':>8} {'p50 ms':>9} "
        f"{'p90 ms':>9} {'p99 ms':>9}",
        "-" * 77,
    ]
    for (comp, name), sketch in sorted(tracer.sketches.items()):
        lines.append(
            f"{(comp or '-') + ':' + name:<38} {sketch.count:>8} "
            f"{sketch.percentile(50) * 1e3:>9.3f} "
            f"{sketch.percentile(90) * 1e3:>9.3f} "
            f"{sketch.percentile(99) * 1e3:>9.3f}"
        )
    lines.append(
        f"({len(tracer.spans)} spans retained, {tracer.dropped} dropped)"
    )
    return "\n".join(lines)


def slowest_trace() -> Optional[List[Span]]:
    """The finished trace with the slowest root span (for the waterfall)."""
    traces = OBS.tracer.traces()
    best: Optional[List[Span]] = None
    best_dur = -1.0
    for spans in traces.values():
        root = next(
            (s for s in spans if s.parent_id is None and s.end is not None),
            None,
        )
        if root is None:
            continue
        dur = root.end - root.start
        if dur > best_dur:
            best_dur = dur
            best = spans
    return best


def render_report() -> str:
    """The full text report: span summary, the slowest request's
    waterfall, the sim-CPU profile, and the flight recorders' tail."""
    sections = [
        "== span summary " + "=" * 45,
        _span_summary(),
    ]
    slowest = slowest_trace()
    if slowest is not None:
        sections += [
            "",
            "== slowest request " + "=" * 42,
            render_waterfall(slowest),
        ]
    sections += [
        "",
        "== simulated CPU profile " + "=" * 36,
        OBS.profiler.top_table(),
        "",
        OBS.profiler.flamegraph(),
        "",
        "== flight recorders (last events) " + "=" * 27,
    ]
    tail = OBS.recorders.dump_tail(last=12)
    sections.append("\n".join(tail) if tail else "(no flight-recorder events)")
    return "\n".join(sections)
