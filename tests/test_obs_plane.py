"""Unit tests for the observability plane: spans, flight recorders, the
sim-time profiler, exporters, the report renderer, and the scraper."""

from __future__ import annotations

import json

import pytest

from repro.obs import OBS, FlightRecorderHub, SimProfiler, Tracer
from repro.obs.export import (
    obs_snapshot,
    registry_snapshot,
    render_json,
    render_prometheus,
)
from repro.obs.plane import ObsPlane
from repro.obs.report import render_report, render_waterfall, slowest_trace
from repro.obs.scrape import MetricScraper
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricRegistry


class _TestPlane(ObsPlane):
    """ObsPlane with a settable test clock (advance via ``plane._t[0]``)."""

    __slots__ = ("_t",)


@pytest.fixture
def plane():
    p = _TestPlane()
    p._t = [0.0]
    p.enable(clock=lambda: p._t[0])
    return p


@pytest.fixture(autouse=True)
def obs_off_after():
    yield
    OBS.disable()


class TestTracer:
    def test_root_and_child_spans(self, plane):
        root = plane.tracer.start("http.request", "client-0")
        assert root.parent_id is None
        plane._t[0] = 0.5
        child = plane.tracer.start("storage_a", "yoda-0",
                                   ctx=Tracer.ctx_of(root))
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        plane._t[0] = 0.7
        plane.tracer.end(child, ok=True)
        assert child.duration == pytest.approx(0.2)
        assert child.attr("ok") is True
        plane.tracer.end(root)
        traces = plane.tracer.traces()
        assert list(traces) == [root.trace_id]
        assert [s.name for s in traces[root.trace_id]] == [
            "http.request", "storage_a"]

    def test_ids_are_deterministic_counters(self, plane):
        a = plane.tracer.start("a")
        b = plane.tracer.start("b")
        assert (a.trace_id, a.span_id) == (1, 1)
        assert (b.trace_id, b.span_id) == (2, 2)

    def test_end_is_idempotent(self, plane):
        span = plane.tracer.start("x")
        plane.tracer.end(span, end=1.0)
        plane.tracer.end(span, end=9.0)
        assert span.end == 1.0
        assert plane.tracer.sketches[("", "x")].count == 1

    def test_durations_feed_sketches(self, plane):
        for i in range(5):
            s = plane.tracer.start("op", "comp", start=0.0)
            plane.tracer.end(s, end=0.001 * (i + 1))
        sketch = plane.tracer.sketches[("comp", "op")]
        assert sketch.count == 5
        assert sketch.max() == pytest.approx(0.005)

    def test_retention_cap_keeps_counting(self):
        p = ObsPlane()
        p.enable(clock=lambda: 0.0)
        p.tracer.max_spans = 3
        for _ in range(5):
            p.tracer.end(p.tracer.start("x"), end=1.0)
        assert len(p.tracer.spans) == 3
        assert p.tracer.dropped == 2
        assert p.tracer.sketches[("", "x")].count == 5

    def test_event_is_zero_duration(self, plane):
        plane._t[0] = 2.0
        ev = plane.tracer.event("l4.route", "mux-0")
        assert ev.start == ev.end == 2.0


class TestFlightRecorder:
    def test_ring_bounded_and_total_counted(self):
        hub = FlightRecorderHub(capacity=4)
        for i in range(10):
            hub.note(float(i), "mux-0", "route", f"flow-{i}")
        rec = hub.recorder("mux-0")
        assert len(rec) == 4
        assert rec.total == 10
        assert rec.events()[0][0] == 6.0

    def test_dump_tail_merges_components_in_time_order(self):
        hub = FlightRecorderHub()
        hub.note(1.0, "a", "k", "first")
        hub.note(3.0, "a", "k", "third")
        hub.note(2.0, "b", "k", "second")
        tail = hub.dump_tail(last=10)
        assert [line.split()[1] for line in tail] == ["[a]", "[b]", "[a]"]

    def test_plane_flight_uses_clock(self, plane):
        plane._t[0] = 4.25
        plane.flight("yoda-0", "drop", "why")
        (t, kind, detail), = plane.recorders.recorder("yoda-0").events()
        assert (t, kind, detail) == (4.25, "drop", "why")


class TestProfiler:
    def test_accumulates_and_ranks(self):
        prof = SimProfiler()
        prof.add("yoda-0", "packet", 0.002)
        prof.add("yoda-0", "packet", 0.003)
        prof.add("mux-0", "route", 0.001)
        assert prof.total() == pytest.approx(0.006)
        rows = prof.rows()
        assert rows[0]["component"] == "yoda-0"
        assert rows[0]["calls"] == 2
        assert prof.by_component() == pytest.approx(
            {"yoda-0": 0.005, "mux-0": 0.001})
        assert "yoda-0" in prof.top_table()
        assert "packet" in prof.flamegraph()


class TestDisabledPlane:
    def test_disabled_is_default_and_cheap(self):
        assert OBS.enabled is False
        # the canonical hot-path guard: one attribute load, no side effects
        if OBS.enabled:  # pragma: no cover
            pytest.fail("plane must start disabled")

    def test_enable_resets_collectors(self):
        OBS.enable(clock=lambda: 1.0)
        OBS.tracer.start("x")
        OBS.flight("c", "k", "d")
        OBS.enable()
        assert OBS.tracer.spans == []
        assert sum(r.total for r in OBS.recorders._recorders.values()) == 0


class TestExporters:
    def _registry(self):
        reg = MetricRegistry("test-reg")
        reg.counter("requests").inc(3)
        reg.gauge("live").set(2.0)
        for v in (0.001, 0.002, 0.003):
            reg.histogram("latency").observe(v)
        return reg

    def test_prometheus_format(self):
        reg = self._registry()
        text = render_prometheus([reg])
        assert 'repro_requests_total{registry="test-reg"} 3' in text
        assert 'repro_live{registry="test-reg"} 2.0' in text
        assert '# TYPE repro_latency summary' in text
        assert 'quantile="0.5"' in text
        assert 'repro_latency_count{registry="test-reg"} 3' in text

    def test_registry_snapshot(self):
        snap = registry_snapshot(self._registry())
        assert snap["counters"]["requests"] == 3
        assert snap["histograms"]["latency"]["count"] == 3
        assert snap["histograms"]["latency"]["p50"] == pytest.approx(0.002)

    def test_render_json_round_trips(self):
        reg = self._registry()
        doc = json.loads(render_json([reg]))
        assert doc["schema"] == "repro-obs/v1"
        assert doc["registries"][0]["name"] == "test-reg"
        assert "obs" in doc

    def test_obs_snapshot_includes_sketches(self, plane):
        s = plane.tracer.start("op", "c", start=0.0)
        plane.tracer.end(s, end=0.01)
        snap = obs_snapshot(plane)
        assert snap["spans"]["retained"] == 1
        assert snap["spans"]["sketches"]["c:op"]["count"] == 1


class TestReport:
    def test_waterfall_and_report(self, plane):
        root = plane.tracer.start("http.request", "client-0", start=0.0)
        child = plane.tracer.start("storage_a", "yoda-0", start=0.01,
                                   ctx=Tracer.ctx_of(root))
        plane.tracer.end(child, end=0.02, ok=True)
        plane.tracer.end(root, end=0.1, ok=True)
        plane.profiler.add("yoda-0", "packet", 0.004)
        plane.flight("yoda-0", "route", "x")
        spans = slowest_trace(plane)
        assert spans is not None
        waterfall = render_waterfall(spans)
        assert "http.request" in waterfall
        assert "storage_a" in waterfall
        report = render_report(plane)
        for section in ("span summary", "slowest request",
                        "simulated CPU profile", "flight recorders"):
            assert section in report

    def test_empty_plane_report(self):
        p = ObsPlane()
        p.enable(clock=lambda: 0.0)
        report = render_report(p)
        assert "(no spans recorded)" in report


class TestScraper:
    def test_scrapes_counters_and_gauges(self):
        loop = EventLoop()
        reg = MetricRegistry("scraped")
        scraper = MetricScraper(loop, registries=[reg], interval=0.5).start()
        reg.counter("hits").inc(10)
        reg.gauge("depth").set(3.0)
        loop.run(until=0.6)  # first scrape: baseline only, no rate point
        reg.counter("hits").inc(5)
        loop.run(until=2.0)
        scraper.stop()
        total = scraper.get("scraped.hits.total")
        assert total.values[-1] == 15
        rate = scraper.get("scraped.hits.rate")
        # pre-start history (10) is a baseline, never a rate spike; the 5
        # hits that landed inside one 0.5 s window show up as 10/s
        assert max(rate.values) == pytest.approx(10.0)
        assert scraper.get("scraped.depth").values[-1] == 3.0
        assert scraper.scrapes >= 3
