"""Backend HTTP server + browser client end-to-end over simulated TCP."""

import pytest

from repro.http.client import BrowserClient, HttpFetcher
from repro.http.message import HttpRequest
from repro.http.server import BackendHttpServer, ServiceTimeModel, StaticSite
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.endpoint import ConnectionHandler, TcpStack


@pytest.fixture
def world():
    loop = EventLoop()
    net = Network(loop, SeededRng(3), default_latency=FixedLatency(0.001))
    server_host = net.attach(Host("srv", ["10.0.0.2"]))
    client_host = net.attach(Host("cli", ["10.0.0.1"]))
    site = StaticSite({
        "/index.html": b"<html>hi</html>",
        "/big.bin": 100_000,
        "/a.jpg": 5_000,
    })
    server = BackendHttpServer(server_host, loop, site,
                               service_model=ServiceTimeModel(base=0.002))
    stack = TcpStack(client_host, loop)
    return loop, server, stack


def fetch(loop, stack, path, **kwargs):
    results = []
    browser = BrowserClient(stack, loop, Endpoint("10.0.0.2", 80), **kwargs)
    browser.fetch(path, results.append)
    loop.run(until=loop.now() + 120)
    assert results, "fetch did not complete"
    return results[0]


class TestServer:
    def test_serves_literal_content(self, world):
        loop, server, stack = world
        result = fetch(loop, stack, "/index.html")
        assert result.ok
        assert result.response.body == b"<html>hi</html>"

    def test_serves_synthesized_content_of_exact_size(self, world):
        loop, server, stack = world
        result = fetch(loop, stack, "/big.bin")
        assert result.ok and len(result.response.body) == 100_000

    def test_404_for_unknown_path(self, world):
        loop, server, stack = world
        result = fetch(loop, stack, "/nope")
        assert not result.ok
        assert result.status == 404

    def test_response_carries_backend_header(self, world):
        loop, server, stack = world
        result = fetch(loop, stack, "/a.jpg")
        assert result.response.headers.get("X-Backend") == "srv"

    def test_service_time_delays_response(self, world):
        loop, server, stack = world
        server.service_model = ServiceTimeModel(base=0.5)
        result = fetch(loop, stack, "/a.jpg")
        assert result.latency > 0.5

    def test_request_counters(self, world):
        loop, server, stack = world
        fetch(loop, stack, "/a.jpg")
        fetch(loop, stack, "/index.html")
        assert server.requests_served == 2
        assert server.bytes_served > 5_000

    def test_http11_keep_alive_two_requests_one_connection(self, world):
        loop, server, stack = world
        got = []

        class KeepAlive(HttpFetcher.__mro__[1]):  # ConnectionHandler
            def __init__(self):
                from repro.http.parser import HttpParser

                self.parser = HttpParser("response")

            def on_connected(self, conn):
                conn.send(HttpRequest("GET", "/a.jpg", host="h").serialize())
                conn.send(HttpRequest("GET", "/index.html", host="h").serialize())

            def on_data(self, conn, data):
                for item in self.parser.feed(data):
                    got.append(item.message)
                if len(got) == 2:
                    conn.close()

        stack.connect(Endpoint("10.0.0.2", 80), KeepAlive())
        loop.run(until=30)
        assert len(got) == 2
        # order preserved: first response is for /a.jpg (5 KB), second HTML
        assert len(got[0].body) == 5_000
        assert got[1].body == b"<html>hi</html>"


class TestClient:
    def test_page_load_fetches_all_objects(self, world):
        loop, server, stack = world
        browser = BrowserClient(stack, loop, Endpoint("10.0.0.2", 80))
        pages = []
        browser.load_page("/index.html", ["/a.jpg", "/big.bin"], pages.append)
        loop.run(until=120)
        assert pages and not pages[0].broken
        assert len(pages[0].object_results) == 3

    def test_page_broken_flag_on_missing_object(self, world):
        loop, server, stack = world
        browser = BrowserClient(stack, loop, Endpoint("10.0.0.2", 80))
        pages = []
        browser.load_page("/index.html", ["/missing.gif"], pages.append)
        loop.run(until=120)
        assert pages[0].broken

    def test_timeout_when_server_dead(self, world):
        loop, server, stack = world
        server.fail()
        result = fetch(loop, stack, "/a.jpg", http_timeout=5.0)
        assert not result.ok
        assert result.error in ("timeout", "tcp-timeout")
        assert result.latency == pytest.approx(5.0, abs=0.5)

    def test_retry_uses_fresh_connection_and_succeeds(self, world):
        loop, server, stack = world
        server.fail()
        loop.call_later(3.0, server.recover)
        result = fetch(loop, stack, "/a.jpg", http_timeout=2.0, retries=3)
        assert result.ok
        assert result.retries_used >= 1
        assert result.first_attempt_failed

    def test_retry_after_a_bad_response_is_not_failed_by_the_old_connection(
            self, world):
        # the first response cannot be framed; the retry's fresh connection
        # must be judged on its own bytes, not on the FIN the abandoned
        # connection still receives
        loop, server, stack = world
        serve = server.handle_request
        served = []

        def first_unframed(request):
            response = serve(request)
            served.append(request.path)
            if len(served) == 1:
                response.headers.set("Content-Length", "abc")
            return response

        server.handle_request = first_unframed
        result = fetch(loop, stack, "/a.jpg", retries=1)  # runs 120 s
        assert (result.ok, result.error, result.retries_used) == (True, None, 1)
        assert len(served) == 2
        assert len(result.response.body) == 5_000
        assert stack.connections() == {}  # long past TIME_WAIT

    def test_close_mid_header_fails_the_attempt(self, world):
        loop, server, stack = world

        class HalfHeader(ConnectionHandler):
            def on_data(self, conn, data):
                conn.send(b"HTTP/1.0 200 OK\r\nContent-Le")
                conn.close()

        server.stack.listen(8080, lambda conn: HalfHeader())
        results = []
        browser = BrowserClient(stack, loop, Endpoint("10.0.0.2", 8080))
        browser.fetch("/a.jpg", results.append)
        loop.run(until=loop.now() + 120)
        assert [(r.ok, r.error) for r in results] == [(False, "closed-early")]
        assert stack.connections() == {}

    def test_stall_timeout_resets_on_progress(self, world):
        loop, server, stack = world
        # slow trickle: big object, tiny stall timeout but steady data flow
        result = fetch(loop, stack, "/big.bin", http_timeout=600.0)
        assert result.ok
