"""HAProxy baseline: proxying works; failure semantics match Section 2.3."""

from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient
from tests.trace_tools import trace_filter


def make_bed(**overrides):
    defaults = dict(seed=21, lb="haproxy", num_lb_instances=3,
                    num_store_servers=2, num_backends=3, corpus="flat",
                    flat_object_count=2, flat_object_bytes=40_000)
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def fetch(bed, path="/obj/0.bin", timeout=30.0, retries=0, deadline=120.0):
    results = []
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=timeout, retries=retries)
    browser.fetch(path, results.append)
    bed.run(deadline)
    assert results
    return results[0]


def busy_proxy(bed):
    for proxy in bed.haproxy_instances:
        if proxy.stack.connections() and not proxy.host.failed:
            return proxy
    return None


class TestProxying:
    def test_basic_fetch_through_vip(self):
        bed = make_bed()
        result = fetch(bed)
        assert result.ok and len(result.response.body) == 40_000

    def test_backend_sees_proxy_ip_not_vip(self):
        bed = make_bed(trace_packets=True)
        fetch(bed)
        backend_rx = trace_filter(bed.trace, point="srv-0", direction="rx")
        backend_rx += trace_filter(bed.trace, point="srv-1", direction="rx")
        backend_rx += trace_filter(bed.trace, point="srv-2", direction="rx")
        assert backend_rx
        for rec in backend_rx:
            assert rec.src.startswith("10.4."), rec  # proxy's own address

    def test_client_sees_vip(self):
        bed = make_bed(trace_packets=True)
        fetch(bed)
        for rec in trace_filter(bed.trace, point="client-0", direction="rx"):
            assert rec.src.startswith("100.0.0.1:80")

    def test_rule_scan_recorded(self):
        bed = make_bed()
        fetch(bed)
        total = sum(p.requests_handled for p in bed.haproxy_instances)
        assert total == 1


class TestFailureSemantics:
    def test_midflow_failure_breaks_connection(self):
        bed = make_bed(flat_object_bytes=3_000_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                                http_timeout=10.0, retries=0)
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.3, lambda: (
            busy_proxy(bed).fail() if busy_proxy(bed) else None))
        bed.run(60.0)
        assert results and not results[0].ok
        assert results[0].error == "timeout"

    def test_retry_succeeds_after_timeout(self):
        bed = make_bed(flat_object_bytes=3_000_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                                http_timeout=8.0, retries=1)
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.3, lambda: (
            busy_proxy(bed).fail() if busy_proxy(bed) else None))
        bed.run(120.0)
        assert results and results[0].ok
        assert results[0].retries_used == 1
        assert results[0].latency > 8.0  # paid the full HTTP timeout

    def test_new_flows_avoid_dead_instance(self):
        bed = make_bed()
        dead = bed.haproxy_instances[0]
        dead.fail()
        bed.run(1.0)  # health check removes it for new flows
        for _ in range(6):
            assert fetch(bed, deadline=10.0).ok

    def test_unaffected_flows_keep_working_during_failure(self):
        bed = make_bed()
        dead = bed.haproxy_instances[0]
        dead.fail()
        bed.run(1.0)
        result = fetch(bed, deadline=10.0)
        assert result.ok

    def test_backend_failure_resets_client(self):
        bed = make_bed(flat_object_bytes=3_000_000, num_backends=1)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                                http_timeout=20.0, retries=0)
        browser.fetch("/obj/0.bin", results.append)
        # fail while the response is still streaming out of the backend
        # (the proxy-to-backend path is fast, so this must happen early)
        bed.loop.call_later(0.075, bed.backends["srv-0"].fail)
        bed.run(90.0)
        assert results and not results[0].ok
