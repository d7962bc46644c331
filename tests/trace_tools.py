"""Test harness over captured packets: the canonical line the golden
digests fold, and record selection for assertions on a ``PacketTrace``."""

from __future__ import annotations

from typing import List, Optional

from repro.sim.tracing import PacketTrace, TraceRecord, endpoint_on_host


def canonical_trace_line(rec: TraceRecord) -> str:
    """One record as a stable, readable line; schedule digests are folded
    over these.  This is the one rendering the golden-trace suite pins."""
    return (
        f"{rec.time:.9f} {rec.point} {rec.direction} "
        f"{rec.src}>{rec.dst} {rec.flags} seq={rec.seq} ack={rec.ack} "
        f"len={rec.payload_len}{' DROPPED' if rec.dropped else ''}"
    )


def trace_filter(trace: PacketTrace, *, point: Optional[str] = None,
                 direction: Optional[str] = None,
                 flow_between: Optional[tuple] = None) -> List[TraceRecord]:
    """The records of ``trace`` captured at ``point``, in ``direction``
    ("rx" or "tx"), and whose src/dst endpoints are exactly the unordered
    pair ``flow_between`` (a bare IP matches every port on that host, see
    ``endpoint_on_host``); an argument left None selects everything."""

    def keep(r: TraceRecord) -> bool:
        if point is not None and r.point != point:
            return False
        if direction is not None and r.direction != direction:
            return False
        if flow_between is not None:
            a, b = flow_between
            fwd = endpoint_on_host(r.src, a) and endpoint_on_host(r.dst, b)
            rev = endpoint_on_host(r.src, b) and endpoint_on_host(r.dst, a)
            return fwd or rev
        return True

    return [r for r in trace.records if keep(r)]
