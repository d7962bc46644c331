"""A finished fetch is freed by reference counting.

Every object a fetch creates -- both TCP connections, their timers, the
fetcher, the backend's per-connection handler, parsers, the request --
must die when its job ends, not wait for CPython's cyclic collector: an
object that lives the 100+ ms of simulated time a connection does is
promoted to the oldest generation before it dies, so a cycle among them
holds its memory until the next *full* collection.  Each bed below is
built, collected once, and then run with the collector off, load to
completion and past the HTTP timeout and TIME_WAIT; a collection then
must find nothing.

The beds: an open loop of 1 KB fetches (the connection-churn shape); a
closed loop of browser page loads (HTML, then each embedded object); the
bed whose serving YODA instance crashes mid-transfer, so flows are
recovered from TCPStore; and HAProxy beds, the second with an instance
crashed under an open loop, so connections end by HTTP-timeout abort and
by retransmission give-up as well as by FIN.
"""

import collections
import gc

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.tcp.endpoint import TcpConnection

HTTP_TIMEOUT = 10.0
PAST_TIMEOUTS = 60.0  # the HTTP timeout, a full RTO give-up and TIME_WAIT


def flat_bed(lb, object_bytes, seed):
    return Testbed(TestbedConfig(
        seed=seed, lb=lb, num_lb_instances=4, num_store_servers=3,
        num_backends=3, corpus="flat", flat_object_bytes=object_bytes,
        flat_object_count=20))


def garbage_after(bed, drive):
    """The fetch results of ``drive(bed)``, run with the collector off, and
    the count of cyclic garbage it left."""
    gc.collect()
    gc.disable()
    try:
        results = drive(bed)
        bed.run(PAST_TIMEOUTS)
        return results, gc.collect()
    finally:
        gc.enable()


def open_loop(crash_at=None):
    def drive(bed):
        gen = bed.open_loop(200.0, http_timeout=HTTP_TIMEOUT)
        if crash_at is not None:
            bed.run(crash_at)
            assert bed.fail_lb_instances(1)
        bed.run(2.0 - (crash_at or 0.0))
        gen.stop()
        return gen.results
    return drive


def closed_loop(crash=False):
    def drive(bed):
        processes = bed.closed_loop(8, http_timeout=HTTP_TIMEOUT, retries=1)
        bed.run(2.0)
        if crash:
            assert bed.fail_lb_instances(1)
            bed.run(4.0)
        for proc in processes:
            proc.stop()
        return processes
    return drive


@pytest.fixture
def endings(monkeypatch):
    """How each connection ended: its last callback's error, or None."""
    seen = collections.Counter()
    teardown = TcpConnection._teardown

    def counted(conn, error=None, closed=False):
        seen[error] += 1
        teardown(conn, error, closed)

    monkeypatch.setattr(TcpConnection, "_teardown", counted)
    return seen


def test_open_loop_fetches_leave_no_cycles():
    results, garbage = garbage_after(flat_bed("yoda", 1_000, seed=9),
                                     open_loop())
    assert garbage == 0
    assert len(results) > 400 and all(r.ok for r in results)


def test_browser_page_loads_leave_no_cycles():
    bed = Testbed(TestbedConfig(seed=11, lb="yoda", num_lb_instances=4,
                                num_store_servers=3, num_backends=3))
    processes, garbage = garbage_after(bed, closed_loop())
    assert garbage == 0
    results = [r for p in processes for r in p.object_results()]
    assert sum(p.pages_loaded for p in processes) >= 8
    assert len(results) > 50 and all(r.ok for r in results)


def test_fetches_recovered_after_an_instance_crash_leave_no_cycles():
    bed = flat_bed("yoda", 200_000, seed=31)
    processes, garbage = garbage_after(bed, closed_loop(crash=True))
    assert garbage == 0
    recovered = sum(i.metrics.counter("flows_recovered").value
                    for i in bed.yoda.instances)
    assert recovered >= 4, "the crash hit no flow mid-transfer"
    assert all(r.ok for p in processes for r in p.object_results())


def test_haproxy_fetches_leave_no_cycles():
    results, garbage = garbage_after(flat_bed("haproxy", 1_000, seed=9),
                                     open_loop())
    assert garbage == 0
    assert len(results) > 400 and all(r.ok for r in results)


def test_connections_aborted_or_given_up_leave_no_cycles(endings):
    results, garbage = garbage_after(flat_bed("haproxy", 20_000, seed=9),
                                     open_loop(crash_at=1.0))
    assert garbage == 0
    errors = collections.Counter(r.error for r in results)
    assert errors["timeout"] > 0, errors  # HTTP timeouts: client aborts
    assert endings["abandoned"] == errors["timeout"], endings
    assert endings["timeout"] > 0, endings  # retransmission give-ups
