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

Last, what a result holds: a fetch may leave under 2 KB behind (its
slotted records, the flow-table entries of its flow), not its body --
twenty 200 KB fetches, and an open loop of 1 KB ones.
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
# response and parsed headers (slotted records whose header pairs and
# status-line strings are shared with every message that carried the same
# lines), and the run's own per-flow records (mux flow-table entries, one
# key string per pin); measured 1.6 KB on CPython 3.11, 2.6 KB while each
# record had a __dict__ and each response its own header pairs, 3.4 KB
# while header names were per message too, 203 KB while the body's bytes
# were kept
MAX_RETAINED_PER_FETCH = 2_000
# the same for an open loop of 1 KB fetches, where most of what stays is
# the results and the two mux pins per flow (60 s idle timeout); measured
# 1.3 KB, 2.1 KB before the records were packed and shared
MAX_RETAINED_PER_OPEN_LOOP_FETCH = 1_600


def retained_bytes(run):
    """Bytes still allocated after ``run()``, past a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


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
        return results

    bed.run(1.0)
    fetch(2)  # warm the paths: first-use allocations are not per fetch
    results, retained = retained_bytes(lambda: fetch(20))
    completed = [r for r in results if r.ok]
    assert len(completed) == 20
    assert all(len(r.response.body) == 200_000 for r in completed)
    per_fetch = retained / len(completed)
    assert per_fetch < MAX_RETAINED_PER_FETCH, (
        f"{per_fetch:,.0f} bytes retained per completed 200 KB fetch")


def test_an_open_loop_of_small_fetches_keeps_little_per_fetch():
    bed = Testbed(TestbedConfig(
        seed=2016, lb="yoda", num_lb_instances=2, num_store_servers=3,
        num_backends=2, corpus="flat", flat_object_bytes=1_000,
        flat_object_count=50))
    gen = bed.open_loop(200.0, http_timeout=30.0)
    bed.run(2.0)  # warm-up: first-use allocations are not per fetch
    warm = len(gen.results)

    def load():
        bed.run(4.0)
        gen.stop()
        bed.run(35.0)  # past the HTTP timeout and TIME_WAIT
        return gen.results[warm:]

    results, retained = retained_bytes(load)
    completed = [r for r in results if r.ok]
    assert len(completed) >= 780
    per_fetch = retained / len(completed)
    assert per_fetch < MAX_RETAINED_PER_OPEN_LOOP_FETCH, (
        f"{per_fetch:,.0f} bytes retained per completed 1 KB fetch")
