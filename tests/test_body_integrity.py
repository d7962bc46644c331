"""What a fetch delivers, by content, and what it keeps.

A fetch's body is checked against the object the backend serves, not just
its length: the synthesized objects are position-stamped (a 251-byte unit
derived from the path, repeated after the stamp), so a tunnel that
delivers a segment at the wrong offset, or one of another object, changes
the bytes.  The checks compare ``body == content``, which holds for bytes
and for the :class:`BodyDigest` a parsed message keeps instead of them.

The beds: a short closed loop of 200 KB bulk fetches; the same with the
serving instance crashed mid-transfer, so flows recovered from TCPStore go
through the paper's sequence translation (Fig. 4); and, through
:func:`wrong_streams`, every completed long-lived stream of the streaming
and region scenarios, resumed ones included.

Last, what a result holds: twenty 200 KB fetches may leave a few KB each
behind (headers, the flow-table entries of their flows), not their bodies.
"""

import gc
import tracemalloc

from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient
from repro.http.server import _synthesize, parse_stream_path

MSS = 1460


def bulk_bed(seed):
    return Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=4, num_store_servers=3,
        num_backends=3, corpus="flat", flat_object_bytes=200_000,
        flat_object_count=20))


def wrong_fetches(bed, results):
    """Paths of the ok fetches whose body is not the object served."""
    site = bed.corpus.site
    return [r.path for r in results
            if r.ok and r.response.body != site.get(r.path)]


def stream_content(path):
    """The bytes a backend sends for a ``/stream/...`` path."""
    chunks, chunk_bytes, _ = parse_stream_path(path)
    return _synthesize(path, chunks * chunk_bytes)


def wrong_streams(results):
    """Paths of the completed streams whose body is not exactly the bytes
    the backend synthesizes for their path."""
    return [r.path for r in results
            if r.complete and r.body != stream_content(r.path)]


def test_equal_length_segments_of_an_object_differ():
    """Swapping two consecutive MSS-sized segments changes the object."""
    body = _synthesize("/obj/0.bin", 200_000)
    assert b"\r" not in body and b"\n" not in body
    segments = [body[i:i + MSS] for i in range(0, len(body) - MSS + 1, MSS)]
    assert all(a != b for a, b in zip(segments, segments[1:]))
    assert _synthesize("/obj/1.bin", 200_000)[100:] != body[100:]


def test_bulk_fetches_deliver_the_objects_served():
    bed = bulk_bed(seed=29)
    processes = bed.closed_loop(8, http_timeout=10.0)
    bed.run(2.5)
    for proc in processes:
        proc.stop()
    bed.run(2.0)
    results = [r for p in processes for r in p.object_results()]
    assert sum(r.ok for r in results) >= 40
    assert wrong_fetches(bed, results) == []


def test_fetches_recovered_after_an_instance_crash_deliver_the_objects_served():
    bed = bulk_bed(seed=31)
    processes = bed.closed_loop(8, http_timeout=10.0, retries=1)
    bed.run(2.0)
    assert bed.fail_lb_instances(1)
    bed.run(4.0)
    for proc in processes:
        proc.stop()
    bed.run(12.0)
    recovered = sum(i.metrics.counter("flows_recovered").value
                    for i in bed.yoda.instances)
    assert recovered >= 4, "the crash hit no flow mid-transfer"
    results = [r for p in processes for r in p.object_results()]
    assert all(r.ok for r in results)
    assert wrong_fetches(bed, results) == []


# what one completed 200 KB fetch may leave allocated: its FetchResult,
# response and parsed headers (values only: the names are shared), and the
# run's own per-flow records (mux flow-table entries, one key string per
# pin); measured 2.6 KB on CPython 3.11, 3.4 KB while header names were per
# message and the router's ECMP memo kept its own copy of each key, 203 KB
# while the body's bytes were kept
MAX_RETAINED_PER_FETCH = 3_200


def test_results_do_not_hold_their_bodies():
    bed = Testbed(TestbedConfig(
        seed=2016, lb="yoda", num_lb_instances=2, num_store_servers=3,
        num_backends=2, corpus="flat", flat_object_bytes=200_000,
        flat_object_count=20, client_jitter=0.0))
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=30.0)
    paths = bed.corpus.site.paths()

    def fetch(count):
        results = []

        def done(result):
            results.append(result)
            if len(results) < count:
                browser.fetch(paths[len(results) % len(paths)], done)

        browser.fetch(paths[0], done)
        while len(results) < count:
            bed.run(1.0)
        # past the HTTP timeout, so no pending timer still holds a fetcher
        bed.run(35.0)
        gc.collect()
        return results

    bed.run(1.0)
    fetch(2)  # warm the paths: first-use allocations are not per fetch
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = fetch(20)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    completed = [r for r in results if r.ok]
    assert len(completed) == 20
    assert all(len(r.response.body) == 200_000 for r in completed)
    per_fetch = retained / len(completed)
    assert per_fetch < MAX_RETAINED_PER_FETCH, (
        f"{per_fetch:,.0f} bytes retained per completed 200 KB fetch")
