"""Simulator-core microbenchmarks: the perf trajectory every PR must beat.

Measures the hot paths every Yoda mechanism rides on:

- ``scheduler``: the headline events/sec figure on the dominant workload --
  parallel event chains each re-arming a retransmission-style far timer
  (schedule + cancel) on every tick, exactly the pattern TCP RTO and
  KV-timeout timers produce.
- ``dispatch``: pure schedule/fire throughput with a deep heap, no cancels.
- ``cancel_churn``: schedule-then-cancel throughput (timers that almost
  never fire -- the common case for retransmission timers on a healthy
  network).
- ``network``: end-to-end packets/sec through Host -> Network -> TcpStack
  for a bulk TCP transfer.
- ``fig9_style``: wall seconds for a small Testbed page-load run with an
  instance failure (the shape of the paper's Figure 9 experiments).

Results are written to ``BENCH_core.json`` at the repo root under a run
envelope (``sha``, ``cpus``, ``python``, ``generated_at``); the fifth
column of the EXPERIMENTS.md table quotes the committed file and
``tests/test_docs_match.py`` compares the two.  When the
committed pre-optimization baseline
(``benchmarks/BENCH_core_baseline.json``) is present, per-metric speedups
are included, so the perf trajectory across PRs is explicit.  Run with:

    PYTHONPATH=src python -m pytest benchmarks/test_core_speed.py -q

No pytest-benchmark dependency: simulations are deterministic, so a single
timed run per workload is the honest unit and keeps this runnable
anywhere.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict

import pytest
from conftest import run_envelope

from repro.net.host import Host
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.endpoint import ConnectionHandler, TcpStack

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_core.json")
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks",
                             "BENCH_core_baseline.json")
SCHEMA = "bench-core/v1"

_metrics: Dict[str, Dict] = {}


def _note(name: str, value: float, unit: str,
          higher_is_better: bool = True) -> None:
    _metrics[name] = {
        "value": round(value, 3),
        "unit": unit,
        "higher_is_better": higher_is_better,
    }
    print(f"\n  [bench] {name}: {value:,.0f} {unit}")


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    """Write BENCH_core.json after the module runs (merging, so a partial
    selection of benchmarks updates rather than erases the report)."""
    yield
    doc = {"schema": SCHEMA, "metrics": {}}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as fh:
                old = json.load(fh)
            if old.get("schema") == SCHEMA:
                doc = old
        except (OSError, ValueError):
            pass
    doc.update(run_envelope())
    doc["metrics"].update(_metrics)
    doc["speedup_vs_baseline"] = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            base = json.load(fh)
        for name, m in doc["metrics"].items():
            b = base.get("metrics", {}).get(name)
            if not b or not b.get("value"):
                continue
            ratio = (m["value"] / b["value"] if m["higher_is_better"]
                     else b["value"] / m["value"])
            doc["speedup_vs_baseline"][name] = round(ratio, 3)
    with open(BENCH_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _noop() -> None:
    pass


class TestSchedulerSpeed:
    def test_scheduler_events_per_sec(self):
        """Headline: chains of events each re-arming a far RTO-style timer.

        Every fired event costs one cancel (of the previous 3 s timer) and
        two schedules (the successor event and the fresh timer) -- the
        schedule/cancel-heavy shape that dominates real runs.
        """
        n_target = 150_000
        chains = 2000
        loop = EventLoop()
        rng = random.Random(2016)
        delays = [0.0005 + rng.random() * 0.005 for _ in range(512)]
        timers = [None] * chains
        fired = [0]

        def tick(chain: int) -> None:
            fired[0] += 1
            t = timers[chain]
            if t is not None:
                t.cancel()
            timers[chain] = loop.call_later(3.0, _noop)
            if fired[0] + chains <= n_target:
                loop.call_later(delays[fired[0] % 512], tick, chain)

        for c in range(chains):
            loop.call_later(delays[c % 512], tick, c)
        start = time.perf_counter()
        total = loop.run()
        wall = time.perf_counter() - start
        assert total >= n_target
        _note("scheduler.events_per_sec", total / wall, "events/sec")

    def test_dispatch_events_per_sec(self):
        """Pure schedule+fire with ~2000 outstanding events, no cancels."""
        n_target = 200_000
        width = 2000
        loop = EventLoop()
        rng = random.Random(7)
        delays = [0.0001 + rng.random() * 0.01 for _ in range(512)]
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] + width <= n_target:
                loop.call_later(delays[fired[0] % 512], tick)

        for c in range(width):
            loop.call_later(delays[c % 512], tick)
        start = time.perf_counter()
        total = loop.run()
        wall = time.perf_counter() - start
        assert total == n_target
        _note("dispatch.events_per_sec", total / wall, "events/sec")

    def test_cancel_churn_ops_per_sec(self):
        """Timers armed and cancelled without ever firing: the healthy-
        network retransmission-timer pattern.  One op = schedule+cancel."""
        n_ops = 150_000
        loop = EventLoop()
        stride = 200  # keep a small rotating set alive between cancels
        rng = random.Random(2016)
        evict = [rng.randrange(stride) for _ in range(n_ops)]
        pending = []
        start = time.perf_counter()
        for i in range(n_ops):
            pending.append(loop.call_later(0.3 + (i % 7) * 0.4, _noop))
            if len(pending) > stride:
                pending.pop(evict[i]).cancel()
        for ev in pending:
            ev.cancel()
        loop.run()
        wall = time.perf_counter() - start
        assert loop.now() == 0.0 or loop.pending_count() == 0
        _note("cancel_churn.ops_per_sec", n_ops / wall, "ops/sec")


class _Sink(ConnectionHandler):
    def __init__(self):
        self.received = 0
        self.closed = False

    def on_data(self, conn, data):
        self.received += len(data)

    def on_remote_close(self, conn):
        conn.close()
        self.closed = True


class _Pusher(ConnectionHandler):
    def __init__(self, payload: bytes):
        self.payload = payload

    def on_connected(self, conn):
        conn.send(self.payload)
        conn.close()


class TestDataPlaneSpeed:
    def test_network_packets_per_sec(self):
        """Bulk TCP transfer server->client across the fabric."""
        transfer = 6_000_000
        loop = EventLoop()
        rng = SeededRng(2016)
        net = Network(loop, rng)
        a = net.attach(Host("a", ["10.0.0.1"]))
        b = net.attach(Host("b", ["10.0.0.2"]))
        stack_a = TcpStack(a, loop)
        stack_b = TcpStack(b, loop)
        payload = bytes(transfer)
        stack_b.listen(80, lambda conn: _Pusher(payload))
        sink = _Sink()
        from repro.net.addresses import Endpoint
        stack_a.connect(Endpoint("10.0.0.2", 80), sink)
        start = time.perf_counter()
        loop.run()
        wall = time.perf_counter() - start
        assert sink.received == transfer
        packets = net.metrics.counter("tx_packets").value
        _note("network.packets_per_sec", packets / wall, "packets/sec")

    def test_fig9_style_wall_seconds(self):
        """A small end-to-end Testbed run: page loads + instance failure."""
        from repro.experiments.harness import Testbed, TestbedConfig
        from repro.http.client import BrowserClient

        start = time.perf_counter()
        bed = Testbed(TestbedConfig(
            seed=2016, lb="yoda", num_lb_instances=3, num_store_servers=2,
            num_backends=3, corpus="flat", flat_object_count=8,
            flat_object_bytes=400_000,
        ))
        results = []
        browsers = [BrowserClient(stack, bed.loop, bed.target())
                    for stack in bed.client_stacks[:3]]
        for i in range(24):
            browsers[i % len(browsers)].fetch(f"/obj/{i % 8}.bin",
                                              results.append)
        bed.loop.call_later(0.4, lambda: bed.fail_lb_instances(1))
        bed.run(60.0)
        wall = time.perf_counter() - start
        assert results and all(r.ok for r in results)
        _note("fig9_style.wall_seconds", wall, "seconds",
              higher_is_better=False)
