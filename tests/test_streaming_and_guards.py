"""Satellite guards around long-lived flows: slow-loris deadlines (backend
and instance), malformed requests, paced ``/stream/`` delivery with
probe-driven recovery, forced-drain mid-stream checkpointing, and TLS
session-ticket resumption backed by the flow store."""

import pytest

from repro.core import YodaServiceConfig
from repro.core.flowstate import client_key
from repro.core.instance import YodaInstance
from repro.errors import SlowClientTimeout
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http import tls
from repro.http.client import HttpFetcher, HttpsFetcher
from repro.http.message import HttpRequest
from repro.http import server as server_module
from repro.http.server import BackendHttpServer, StaticSite, parse_stream_path
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.obs import OBS
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.endpoint import ConnectionHandler, TcpStack
from repro.workload.streaming import StreamingClient
from tests.test_body_integrity import stream_content, wrong_streams

CERT = tls.Certificate("secure.example", size=3_000)


class RawClient(ConnectionHandler):
    """Scripted byte-dribbler: sends (delay, bytes) pairs, records events."""

    def __init__(self, stack, loop, target, script):
        self.loop = loop
        self.script = script  # delays count from connection establishment
        self.received = bytearray()
        self.errors = []
        self.closed_by_peer = False
        self.conn = stack.connect(target, self)

    def on_connected(self, conn):
        for delay, chunk in self.script:
            self.loop.call_later(delay, self._send, chunk)

    def _send(self, chunk):
        if self.conn.state.can_send:
            self.conn.send(chunk)

    def on_data(self, conn, data):
        self.received.extend(data)

    def on_remote_close(self, conn):
        self.closed_by_peer = True

    def on_error(self, conn, reason):
        self.errors.append(reason)


@pytest.fixture
def world(monkeypatch):
    monkeypatch.setattr(server_module, "SERVICE_TIME", 0.002)
    loop = EventLoop()
    net = Network(loop, SeededRng(3), default_latency=FixedLatency(0.001))
    server_host = net.attach(Host("srv", ["10.0.0.2"]))
    client_host = net.attach(Host("cli", ["10.0.0.1"]))
    site = StaticSite({"/index.html": b"<html>hello</html>"})
    server = BackendHttpServer(
        server_host, loop, site,
        progress_deadline=2.0,
    )
    stack = TcpStack(client_host, loop)
    return loop, server, stack


REQUEST = b"GET /index.html HTTP/1.0\r\n\r\n"


class TestBackendSlowLorisGuard:
    def test_trickling_header_is_reset(self, world):
        loop, server, stack = world
        # one byte every 700 ms: never idle long, never a complete request
        script = [(0.7 * i, REQUEST[i:i + 1]) for i in range(6)]
        client = RawClient(stack, loop, Endpoint(server.ip, 80), script)
        loop.run(until=6.0)
        assert server.slow_client_timeouts == 1
        assert isinstance(server.slow_clients[0], SlowClientTimeout)
        assert server.slow_clients[0].deadline == 2.0
        assert "reset" in client.errors
        assert server.requests_served == 0

    def test_idle_keepalive_connection_survives(self, world):
        loop, server, stack = world
        from repro.net.addresses import Endpoint
        # connect, say nothing for 5 s (over the 2 s deadline), then ask
        client = RawClient(stack, loop, Endpoint(server.ip, 80),
                           [(5.0, REQUEST)])
        loop.run(until=8.0)
        assert server.slow_client_timeouts == 0
        assert not client.errors
        assert b"200 OK" in client.received
        assert b"hello" in client.received

    def test_slow_but_compliant_client_is_served(self, world):
        loop, server, stack = world
        from repro.net.addresses import Endpoint
        third = len(REQUEST) // 3
        script = [(0.0, REQUEST[:third]), (0.6, REQUEST[third:2 * third]),
                  (1.2, REQUEST[2 * third:])]
        client = RawClient(stack, loop, Endpoint(server.ip, 80), script)
        loop.run(until=4.0)
        assert server.slow_client_timeouts == 0
        assert b"200 OK" in client.received


class TestStreamPaths:
    def test_parse_valid(self):
        assert parse_stream_path("/stream/8/100/10") == (8, 100, 10)
        assert parse_stream_path("/stream/1/1/0") == (1, 1, 0)

    def test_parse_rejects_malformed(self):
        assert parse_stream_path("/obj/0.bin") is None
        assert parse_stream_path("/stream/8/100") is None
        assert parse_stream_path("/stream/8/100/10/x") is None
        assert parse_stream_path("/stream/a/100/10") is None
        assert parse_stream_path("/stream/0/100/10") is None
        assert parse_stream_path("/stream/8/-1/10") is None

    def test_paced_delivery_spans_time(self, world):
        loop, server, stack = world
        from repro.net.addresses import Endpoint
        done = []
        client = StreamingClient(
            stack, loop, Endpoint(server.ip, 80), "/stream/5/200/50",
            done.append,
        )
        client.start()
        loop.run(until=10.0)
        assert done and done[0].complete
        result = done[0]
        assert result.bytes_expected == 1_000
        assert result.bytes_received == 1_000
        assert result.body == stream_content("/stream/5/200/50")
        assert result.stalls == 0
        # 5 chunks, 50 ms apart: at least 4 inter-chunk gaps of pacing
        assert result.finished_at - result.established_at >= 4 * 0.050

    def test_malformed_header_fails_the_stream_and_the_run_goes_on(self, world):
        """The stream reads through the one response parser: a length
        that cannot frame the body is a ``bad-response``, not an exception
        out of the event loop."""
        loop, server, stack = world
        serve = server.handle_request

        def bad_length(request):
            response = serve(request)
            if request.path.startswith("/stream/1/"):
                response.headers.set("Content-Length", "abc")
            return response

        server.handle_request = bad_length
        done = []
        for path in ("/stream/1/300/10", "/stream/2/300/10"):
            StreamingClient(stack, loop, Endpoint(server.ip, 80), path,
                            done.append).start()
        loop.run(until=10.0)
        bad, good = sorted(done, key=lambda r: r.path)
        assert (bad.ok, bad.error, bad.body) == (False, "bad-response", None)
        assert good.complete and good.body == stream_content(good.path)


def make_bed(**overrides):
    defaults = dict(
        seed=91, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=2, corpus="flat", flat_object_count=2,
        flat_object_bytes=20_000, client_jitter=0.0,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


class TestInstanceHeaderDeadline:
    def test_headerless_flow_is_reaped(self):
        bed = make_bed(yoda=YodaServiceConfig(header_deadline=1.0))
        client = RawClient(bed.client_stacks[0], bed.loop, bed.target(),
                           [(0.0, b"GET /obj")])  # header never completes
        bed.run(5.0)
        timeouts = sum(i.metrics.counter("slow_client_timeouts").value
                       for i in bed.yoda.instances)
        assert timeouts == 1
        reaper = [i for i in bed.yoda.instances if i.slow_clients][0]
        assert isinstance(reaper.slow_clients[0], SlowClientTimeout)
        assert "reset" in client.errors

    def test_normal_traffic_unaffected(self):
        bed = make_bed(yoda=YodaServiceConfig(header_deadline=1.0))
        procs = bed.closed_loop(2)
        fleet = bed.streaming(1, chunks=20, chunk_bytes=500, interval_ms=100)
        bed.run(12.0)
        assert fleet.completed() == 1
        assert wrong_streams(fleet.results) == []
        pages = [r for p in procs for r in p.results]
        assert pages and not any(r.broken for r in pages)
        assert sum(i.metrics.counter("slow_client_timeouts").value
                   for i in bed.yoda.instances) == 0


NO_COLON = b"GET /obj/0.bin HTTP/1.1\r\nthis line has no colon\r\n\r\n"
BAD_LINE_BODY_PENDING = b"GET /obj/0.bin\r\nContent-Length: 100\r\n\r\n"
GOOD = HttpRequest("GET", "/obj/0.bin", host="secure.example")


class TestMalformedRequest:
    """Bytes no well-formed client sends cost their sender its connection
    and nobody else anything: the parser's typed refusal used to leave
    ``EventLoop.run`` through the instance's three feed sites."""

    @pytest.mark.parametrize("lb, cert, script", [
        ("yoda", None, [(0.0, NO_COLON)]),
        # not a TLS record at all: the codec refuses the type byte
        ("yoda", CERT, [(0.0, b"\x99\x00\x05hello")]),
        # a full handshake, then a request that does not parse once decrypted
        ("yoda", CERT, [(0.0, tls.client_hello("secure.example")),
                        (1.0, tls.key_exchange("secure.example")
                         + tls.app_data(b"not a request line\r\n\r\n"))]),
        # refused on sight: a header that does not parse is not waited on,
        # whether its body is still to come or it arrived decrypted
        ("yoda", None, [(0.0, BAD_LINE_BODY_PENDING)]),
        ("yoda", CERT, [(0.0, tls.client_hello("secure.example")),
                        (1.0, tls.key_exchange("secure.example")
                         + tls.app_data(NO_COLON))]),
        ("haproxy", None, [(0.0, NO_COLON)]),
    ], ids=["yoda-plain", "yoda-tls-record", "yoda-tls-request",
            "yoda-plain-body-pending", "yoda-tls-header-line", "haproxy"])
    def test_bad_client_is_reset_and_the_run_goes_on(self, lb, cert, script):
        bed = make_bed(lb=lb, tls_certificate=cert)
        bad = RawClient(bed.client_stacks[0], bed.loop, bed.target(), script)
        results = []
        fetcher = HttpsFetcher if cert else HttpFetcher
        kwargs = {"sni": "secure.example"} if cert else {}
        fetcher(bed.client_stacks[1], bed.loop, bed.target(), GOOD,
                results.append, **kwargs).start()
        bed.run(6.0)
        assert bad.errors == ["reset"]
        assert [r.ok for r in results] == [True]
        if lb != "yoda":
            return
        instances = bed.yoda.instances
        assert sum(i.metrics.counter("bad_requests").value
                   for i in instances) == 1
        assert not any(i.flows or i.by_server for i in instances)
        assert not any(ports for i in instances
                       for ports in i.snat_ports.in_use.values())
        key = client_key(bad.conn.local, bed.target())
        assert [s.peek(key) for s in bed.yoda.store_servers] == [None] * 2

    def test_refusal_is_in_the_flight_recorder(self):
        bed = make_bed()
        OBS.enable()
        OBS.attach_clock(bed.loop.now)
        try:
            bad = RawClient(bed.client_stacks[0], bed.loop, bed.target(),
                            [(0.0, NO_COLON)])
            bed.run(3.0)
        finally:
            OBS.disable()
        notes = [line for i in bed.yoda.instances
                 for line in OBS.recorders.dump(i.name)]
        assert [n for n in notes if "bad_request" in n
                and str(bad.conn.local) in n], notes

    def test_malformed_follow_up_request_is_the_backends_to_answer(
            self, monkeypatch):
        """While tunnelling the instance only re-classifies: a second
        request it cannot parse is forwarded like any other bytes and the
        flow stops being re-classified (the state TLS flows are in)."""
        bed = make_bed()
        ended = []  # requests_seen of every flow, as it leaves the table
        destroy = YodaInstance._destroy_flow
        monkeypatch.setattr(
            YodaInstance, "_destroy_flow",
            lambda self, flow, remove_stored: (
                ended.append(flow.requests_seen),
                destroy(self, flow, remove_stored)))
        first = HttpRequest("GET", "/obj/0.bin", host="x").serialize()
        bad = RawClient(bed.client_stacks[0], bed.loop, bed.target(),
                        [(0.0, first), (1.0, NO_COLON)])
        bed.run(6.0)
        # the backend read the forwarded bytes and refused them itself
        assert b"200 OK" in bad.received and bad.errors == ["reset"]
        assert ended == [None]
        assert not any(i.flows for i in bed.yoda.instances)
        assert sum(i.metrics.counter("bad_requests").value
                   for i in bed.yoda.instances) == 0


class TestStreamSurvivesInstanceFailover:
    def test_probe_recovers_stream_after_instance_crash(self):
        bed = make_bed()
        fleet = bed.streaming(2, chunks=30, chunk_bytes=500, interval_ms=100)
        bed.run(1.0)
        assert bed.serving_lb_instances(), "streams not established yet"
        bed.fail_lb_instances(1)  # kills the busiest (serving) instance
        bed.run(15.0)
        assert fleet.completed() == 2
        assert fleet.unfinished() == 0
        assert wrong_streams(fleet.results) == []
        # at least one stream stalled and probed its way onto a survivor,
        # which adopted it from the flow store
        assert any(r.stalls > 0 for r in fleet.results)
        recovered = sum(i.metrics.counter("flows_recovered").value
                        for i in bed.yoda.instances)
        assert recovered >= 1


class TestForcedDrainCheckpoint:
    def test_midstream_flows_survive_deadline_forced_drain(self):
        bed = make_bed()
        fleet = bed.streaming(2, chunks=40, chunk_bytes=500, interval_ms=100)
        bed.run(1.0)
        victim = max(bed.yoda.instances, key=lambda i: len(i.flows))
        assert victim.flows, "no stream landed anywhere"
        bed.yoda.controller.drain_instance(victim.name, deadline=0.5)
        bed.run(15.0)
        assert fleet.completed() == 2
        assert fleet.unfinished() == 0
        assert wrong_streams(fleet.results) == []
        # the drain hit its deadline and serialized the stream's progress
        assert bed.yoda.controller.metrics.counter("drains_forced").value == 1
        assert victim.metrics.counter("handoff_checkpoints").value >= 1


def https_fetch(bed, cache=None, path="/obj/0.bin", retries=0, deadline=60.0):
    results = []
    fetcher = HttpsFetcher(
        bed.client_stacks[0], bed.loop, bed.target(),
        HttpRequest("GET", path, host="secure.example"),
        results.append, sni="secure.example", session_cache=cache,
        retries=retries,
    )
    fetcher.start()
    bed.run(deadline)
    assert results, "https fetch never concluded"
    return results[0]


class TestTlsSessionResumption:
    def make_tls_bed(self, **overrides):
        return make_bed(tls_certificate=CERT, tls_session_tickets=True,
                        **overrides)

    def test_full_handshake_issues_and_caches_ticket(self):
        bed = self.make_tls_bed()
        cache = {}
        result = https_fetch(bed, cache)
        assert result.ok and not result.resumed
        assert len(result.response.body) == 20_000
        assert "secure.example" in cache

    def test_second_fetch_resumes_abbreviated(self):
        bed = self.make_tls_bed()
        cache = {}
        first = https_fetch(bed, cache)
        assert first.ok and not first.resumed
        second = https_fetch(bed, cache)
        assert second.ok and second.resumed
        resumed = sum(i.metrics.counter("tls_tickets_resumed").value
                      for i in bed.yoda.instances)
        assert resumed == 1

    def test_resumption_survives_instance_failover(self):
        bed = self.make_tls_bed()
        cache = {}
        assert https_fetch(bed, cache).ok
        # kill two of three instances: whichever survives almost surely
        # never spoke to this client, yet must honor the ticket because it
        # lives in the flow store, not in instance memory
        for instance in bed.yoda.instances[:2]:
            instance.fail()
        bed.run(2.0)  # controller health probes re-anchor the VIP
        result = https_fetch(bed, cache)
        assert result.ok and result.resumed

    def test_unknown_ticket_falls_back_to_full_handshake(self):
        bed = self.make_tls_bed()
        cache = {"secure.example": "counterfeit"}
        result = https_fetch(bed, cache, retries=1)
        assert result.ok and not result.resumed
        assert result.first_attempt_failed  # the RST burned one attempt
        # the failed resumption evicted the bad ticket; the full handshake
        # that followed cached a genuine one
        assert cache["secure.example"] != "counterfeit"

    def test_tickets_off_means_no_resumption(self):
        bed = make_bed(tls_certificate=CERT)  # tickets disabled
        cache = {}
        result = https_fetch(bed, cache)
        assert result.ok and not result.resumed
        assert cache == {}
