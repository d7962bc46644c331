"""Span-based request tracing in simulated time.

A *span* is a named interval of sim-time attributed to a component, with an
optional parent -- the building block of a request waterfall: the client's
``http.request`` span is the root; the Yoda instance's ``storage_a`` /
``server_connect`` / ``storage_b`` spans and the KV client's per-op spans
hang below it, correlated by a *trace context* ``(trace_id, span_id)`` that
rides on packets (``pkt.meta["obs_ctx"]``) across the wire.

Determinism: span and trace IDs come from plain counters -- the tracer
never draws randomness and never schedules events, so recording spans can
never perturb the simulated schedule (the zero-perturbation rule the golden
trace suite enforces).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.sketch import QuantileSketch

# A context is (trace_id, span_id): enough to parent a child span.
Ctx = Tuple[int, int]

# Bound on retained finished spans: beyond this the tracer keeps counting
# durations in the sketches but stops retaining span objects, so a long run
# cannot grow without bound.
DEFAULT_MAX_SPANS = 250_000


class Span:
    """One named sim-time interval.  ``end is None`` until finished."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "component",
        "start",
        "end",
        "attrs",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        component: str,
        start: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def attr(self, key: str, default: Any = None) -> Any:
        if self.attrs is None:
            return default
        return self.attrs.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"Span({self.name!r}, {self.component!r}, trace={self.trace_id}, "
            f"start={self.start:.6f}, end={end})"
        )


class Tracer:
    """Creates, finishes, and retains spans.

    The tracer is passive: starting or ending a span touches only Python
    objects.  Finished span durations also feed a per-``(component, name)``
    quantile sketch, so quantiles over huge span populations stay O(1).
    """

    def __init__(self, plane, max_spans: int = DEFAULT_MAX_SPANS):
        self._plane = plane
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self.sketches: Dict[Tuple[str, str], QuantileSketch] = {}
        self._next_trace = 0
        self._next_span = 0

    # ----------------------------------------------------------- creation --
    def new_trace_id(self) -> int:
        self._next_trace += 1
        return self._next_trace

    def start(
        self,
        name: str,
        component: str = "",
        ctx: Optional[Ctx] = None,
        start: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span.  ``ctx`` parents it into an existing trace; without
        one, the span roots a fresh trace."""
        if ctx is not None:
            trace_id, parent_id = ctx
        else:
            trace_id, parent_id = self.new_trace_id(), None
        self._next_span += 1
        span = Span(
            trace_id,
            self._next_span,
            parent_id,
            name,
            component,
            self._plane.now() if start is None else start,
        )
        if attrs:
            span.attrs = dict(attrs)
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: Span, end: Optional[float] = None, **attrs: Any) -> None:
        """Finish a span (idempotent: a second end is ignored)."""
        if span.end is not None:
            return
        span.end = self._plane.now() if end is None else end
        if attrs:
            if span.attrs is None:
                span.attrs = {}
            span.attrs.update(attrs)
        key = (span.component, span.name)
        sketch = self.sketches.get(key)
        if sketch is None:
            sketch = self.sketches[key] = QuantileSketch()
        sketch.add(span.end - span.start)

    def event(
        self,
        name: str,
        component: str = "",
        ctx: Optional[Ctx] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """A zero-duration span: a point-in-time annotation on a trace."""
        span = self.start(name, component, ctx=ctx, attrs=attrs)
        self.end(span, end=span.start)
        return span

    @staticmethod
    def ctx_of(span: Span) -> Ctx:
        return (span.trace_id, span.span_id)

    # -------------------------------------------------------------- reads --
    def drain(self) -> List[Span]:
        """Return all retained spans and forget them (sketches are kept)."""
        out = self.spans
        self.spans = []
        return out

    def traces(self) -> Dict[int, List[Span]]:
        """Retained spans grouped by trace, each sorted by start time."""
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        for spans in out.values():
            spans.sort(key=lambda s: (s.start, s.span_id))
        return out

    def finished(self, name: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.end is not None and (name is None or s.name == name)
        ]
