"""Analysis helpers and the packet tracer."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.report import render_table
from repro.analysis.stats import mean, median, percentile
from repro.sim.tracing import PacketTrace, TraceRecord, endpoint_on_host
from tests.trace_tools import trace_filter


class TestStats:
    def test_median_even(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_percentile_bounds(self):
        assert percentile([5], 0) == 5
        assert percentile([1, 2, 3], 100) == 3

    def test_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=60))
    def test_percentile_monotone(self, values):
        p25 = percentile(values, 25)
        p75 = percentile(values, 75)
        assert p25 <= p75


class TestRenderTable:
    def test_renders_columns_aligned(self):
        rows = [{"a": 1, "bbb": "x"}, {"a": 22, "bbb": "yy"}]
        out = render_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5  # title, header, sep, 2 rows

    def test_empty(self):
        assert "(empty)" in render_table([])

    def test_float_formatting(self):
        out = render_table([{"v": 0.000123}, {"v": 123456.0}])
        assert "0.000123" in out
        assert "123,456" in out

    def test_missing_column_is_blank(self):
        out = render_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert out  # no crash


def rec(time, point="p", direction="rx", src="1.1.1.1:1", dst="2.2.2.2:2",
        flags=".", seq=0, ack=0, length=0, dropped=False):
    return TraceRecord(time=time, point=point, direction=direction,
                       src=src, dst=dst, flags=flags, seq=seq,
                       ack=ack, payload_len=length, dropped=dropped)


class TestPacketTrace:
    def test_filter_by_point_and_direction(self):
        trace = PacketTrace()
        trace.record(rec(1.0, point="a", direction="rx"))
        trace.record(rec(2.0, point="b", direction="tx"))
        assert len(trace_filter(trace, point="a")) == 1
        assert len(trace_filter(trace, direction="tx")) == 1

    def test_filter_flow_between(self):
        trace = PacketTrace()
        trace.record(rec(1.0, src="10.0.0.1:80", dst="10.0.0.2:99"))
        trace.record(rec(2.0, src="10.0.0.2:99", dst="10.0.0.1:80"))
        trace.record(rec(3.0, src="10.0.0.3:5", dst="10.0.0.1:80"))
        pair = trace_filter(trace, flow_between=("10.0.0.1", "10.0.0.2"))
        assert len(pair) == 2

    def test_flow_between_bare_ip_does_not_claim_longer_addresses(self):
        """With >= 10 hosts on a subnet, "10.0.0.1" is a string prefix of
        "10.0.0.10" .. "10.0.0.19": a bare prefix match selected them."""
        trace = PacketTrace()
        trace.record(rec(1.0, src="10.0.0.1:80", dst="10.0.0.2:99"))
        for host in range(10, 20):
            trace.record(rec(2.0, src=f"10.0.0.{host}:80", dst="10.0.0.2:99"))
            trace.record(rec(3.0, src="10.0.0.2:99", dst=f"10.0.0.{host}:80"))
        assert len(trace) == 21
        pair = trace_filter(trace, flow_between=("10.0.0.1", "10.0.0.2"))
        assert [r.time for r in pair] == [1.0]
        # a full endpoint narrows to that port, and is no prefix either
        assert len(trace_filter(trace, flow_between=("10.0.0.1:80", "10.0.0.2"))) == 1
        assert trace_filter(trace, flow_between=("10.0.0.1:8", "10.0.0.2")) == []

    def test_endpoint_on_host(self):
        assert endpoint_on_host("10.0.0.1:80", "10.0.0.1")
        assert endpoint_on_host("10.0.0.1:80", "10.0.0.1:80")
        assert not endpoint_on_host("10.0.0.10:80", "10.0.0.1")
        assert not endpoint_on_host("10.0.0.1:80", "10.0.0.1:8")

    def test_retransmissions_detected(self):
        trace = PacketTrace()
        trace.record(rec(1.0, seq=100, length=10))
        trace.record(rec(2.0, seq=100, length=10))  # retransmit
        trace.record(rec(3.0, seq=110, length=10))
        retrans = trace.retransmissions()
        assert len(retrans) == 1
        assert retrans[0].time == 2.0

    def test_pure_acks_not_counted_as_retransmissions(self):
        trace = PacketTrace()
        trace.record(rec(1.0, seq=1, length=0, flags="."))
        trace.record(rec(2.0, seq=1, length=0, flags="."))
        assert trace.retransmissions() == []

    def test_disabled_trace_records_nothing(self):
        trace = PacketTrace()
        trace.enabled = False
        trace.record(rec(1.0))
        assert len(trace) == 0

    def test_dump_format(self):
        trace = PacketTrace()
        trace.record(rec(1.5, flags="S", dropped=True))
        out = trace.dump()
        assert "S" in out and "DROPPED" in out
