"""Stateless compact dispatch: memory per flow, raw speed, crash ablation.

Not a paper figure -- YODA's per-flow state in TCPStore is what buys its
availability story, and this experiment measures what that state *costs*
by contrasting it with the opposite design point: a Concury-style
stateless fast path (``repro.l4lb.compact``) where muxes dispatch from a
frozen O(1) lookup table and instances never write flow records.

Three measurements, same seed:

- **memory**: dispatch + durable state bytes per live flow under a fleet
  of concurrent streaming downloads.  Stateful mode pays a mux flow-table
  pin plus replicated TCPStore records per flow; stateless mode amortizes
  one fixed-size compact table across every flow (>= 2x smaller per flow
  at modest concurrency, and the gap widens with flow count).
- **speed**: wall-clock mux dispatch microbenchmark, both paths.  On the
  new-connection path (the L4-LB headline metric) the stateless table is
  a multiple faster: one crc32 + two array reads versus consistent-hash
  ring lookup + pin allocation + dict store.  On the established path a
  hot CPython dict hit is near the interpreter floor, so the gate there
  is "no material regression", not a win.
- **chaos**: the ``double-crash`` scenario both ways.  Stateful YODA
  recovers mid-transfer flows from TCPStore and comes out clean; the
  stateless leg *must* break established flows when their instance dies
  -- there is nothing durable to recover from.  That demonstrated loss is
  the point: statelessness is a trade, not a free win.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from typing import Dict

from repro.chaos.library import get_scenario
from repro.chaos.scenario import run_scenario
from repro.core import YodaServiceConfig
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig
from repro.l4lb.service import L4LoadBalancer
from repro.net.addresses import Endpoint
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.net.packet import ACK, SYN, Packet
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

VIP = "100.0.0.1"

# durable per-flow records (client-side, server-side, TLS tickets);
# control-plane keys (yoda:ctl:*) are not flow state and are excluded
FLOW_RECORD_PREFIXES = ("yoda:c:", "yoda:s:", "yoda:tkt:")


# --------------------------------------------------------------- memory --
def dispatch_state_bytes(bed: Testbed) -> Dict[str, int]:
    """Account every byte of LB-tier per-flow dispatch + durable state:
    mux flow-table pins, TCPStore flow records (all replicas), and the
    compact tables themselves (charged to the stateless design)."""
    pin_bytes = 0
    pins = 0
    for mux in bed.l4lb.muxes:
        for key, entry in mux.flow_table.items():
            pins += 1
            pin_bytes += (sys.getsizeof(key) + sys.getsizeof(entry)
                          + sys.getsizeof(entry.instance_ip)
                          + sys.getsizeof(entry.last_used))
    store_bytes = 0
    store_records = 0
    for server in bed.yoda.store_servers:
        for key, (_, value) in server._store.items():
            if key.startswith(FLOW_RECORD_PREFIXES):
                store_records += 1
                store_bytes += len(key) + len(value)
    compact_bytes = 0
    for vip in bed.l4lb.vips():
        table = bed.l4lb.compact_table(vip)
        if table is not None:
            compact_bytes += table.size_bytes()
    live_flows = sum(len(inst.flows) for inst in bed.yoda.instances)
    total = pin_bytes + store_bytes + compact_bytes
    return {
        "pins": pins,
        "pin_bytes": pin_bytes,
        "store_records": store_records,
        "store_bytes": store_bytes,
        "compact_bytes": compact_bytes,
        "live_flows": live_flows,
        "total_bytes": total,
        "bytes_per_flow": total // max(1, live_flows),
    }


def run(
    seed: int = 2016,
    stateless: bool = False,
    streams: int = 32,
    stream_chunks: int = 60,
    sample_at: float = 4.0,
    duration: float = 6.0,
) -> ExperimentResult:
    """One memory leg: hold ``streams`` concurrent paced downloads open
    and sample the dispatch-state footprint mid-run."""
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=3, num_store_servers=3,
        num_backends=3, corpus="flat", flat_object_bytes=20_000,
        yoda=YodaServiceConfig(stateless=stateless),
    ))
    sample: Dict[str, int] = {}
    bed.loop.call_later(sample_at, lambda: sample.update(
        dispatch_state_bytes(bed)))
    fleet = bed.streaming(streams, chunks=stream_chunks, chunk_bytes=1_000,
                          interval_ms=100, start_at=0.2, spacing=0.02)
    bed.run(duration)
    bed.run(stream_chunks * 0.1 + 4.0)  # let every stream finish

    result = ExperimentResult(
        name=f"Dispatch-state footprint ({'stateless' if stateless else 'stateful'})")
    result.rows = [dict(sample)]
    result.summary = {
        "stateless": stateless,
        "bytes_per_flow": sample.get("bytes_per_flow", 0),
        "live_flows_at_sample": sample.get("live_flows", 0),
        "streams_completed": fleet.completed(),
        "streams_broken": fleet.broken() + fleet.unfinished(),
    }
    result.notes = (
        f"{streams} concurrent paced streams, footprint sampled at "
        f"t={sample_at:.0f}s; bytes = mux pins + TCPStore flow records "
        f"(all replicas) + compact tables."
    )
    return result


# ---------------------------------------------------------------- speed --
def run_speed(flows: int = 256,
              rounds: int = 40) -> Dict[str, Dict[str, float]]:
    """Wall-clock mux dispatch rate of both modes (at the fastest of
    ``rounds`` passes), SYN path and established path, keyed by mode.

    Standalone muxes with no instance hosts attached: ``process``
    resolves the target and returns without scheduling events, so the
    measurement is the dispatch decision itself.  The two modes' passes
    alternate, so a slow host phase lands on both sides of the ratio."""
    modes = {}
    for stateless in (False, True):
        loop = EventLoop()
        net = Network(loop, SeededRng(7), default_latency=FixedLatency(0.0002))
        lb = L4LoadBalancer(
            loop, net, SeededRng(7), num_muxes=1, stateless=stateless)
        lb.register_vip(VIP)
        lb.update_mapping(VIP, [f"10.1.0.{i + 1}" for i in range(8)],
                          immediate=True)
        loop.run(until=0.1)  # apply the (delay=0) mapping push
        modes["stateless" if stateless else "stateful"] = lb.muxes[0]
    syns = [Packet(src=Endpoint("172.16.0.1", port), dst=Endpoint(VIP, 80),
                   flags=SYN, seq=1)
            for port in range(40000, 40000 + flows)]
    acks = [Packet(src=Endpoint("172.16.0.1", port), dst=Endpoint(VIP, 80),
                   flags=ACK, seq=2)
            for port in range(40000, 40000 + flows)]
    for mux in modes.values():
        for pkt in syns:  # establish (and warm) every flow
            mux.process(pkt)
        for pkt in acks:  # warmup pass
            mux.process(pkt)

    def timed(pkts) -> Dict[str, float]:
        # the rate of the fastest pass: the host only ever makes a pass
        # slower, and a ratio of two totals loses to one slow phase
        best = dict.fromkeys(modes, float("inf"))
        for _ in range(rounds):
            for mode, mux in modes.items():
                started = time.perf_counter()
                for pkt in pkts:
                    mux.process(pkt)
                best[mode] = min(best[mode], time.perf_counter() - started)
        return {mode: len(pkts) / t if t > 0 else 0.0
                for mode, t in best.items()}

    syn_pps = timed(syns)
    est_pps = timed(acks)
    return {
        mode: {
            "syn_pps": syn_pps[mode],
            "established_pps": est_pps[mode],
            "flow_table_entries": float(len(mux.flow_table)),
        }
        for mode, mux in modes.items()
    }


# ---------------------------------------------------------------- chaos --
def run_crash_contrast(seed: int = 2016, quick: bool = False):
    """double-crash both ways: stateful must pass, stateless must lose
    established flows (that loss is the ablation's demonstrandum)."""
    base = get_scenario("double-crash")
    if quick:
        base = replace(base, clients=2, object_count=3, duration=8.0,
                       drain=6.0)
    else:
        base = replace(base, clients=3, object_count=4, duration=10.0,
                       drain=8.0)
    stateful = run_scenario(base, lb="yoda", seed=seed)
    stateless = run_scenario(
        replace(base, yoda=replace(base.yoda, stateless=True)),
        lb="yoda", seed=seed)
    return stateful, stateless


# ------------------------------------------------------------- ablation --
def run_ablation(seed: int = 2016, quick: bool = False) -> ExperimentResult:
    """The headline contrast: memory, speed, and crash survival, both
    modes, one summary."""
    streams = 16 if quick else 32
    chunks = 40 if quick else 60
    mem_stateful = run(seed=seed, stateless=False, streams=streams,
                       stream_chunks=chunks)
    mem_stateless = run(seed=seed, stateless=True, streams=streams,
                        stream_chunks=chunks)
    speed_flows = 128 if quick else 256
    speed_rounds = 20 if quick else 40
    speed = run_speed(flows=speed_flows, rounds=speed_rounds)
    speed_stateful, speed_stateless = speed["stateful"], speed["stateless"]
    crash_stateful, crash_stateless = run_crash_contrast(seed=seed,
                                                         quick=quick)

    result = ExperimentResult(name="Stateless dispatch ablation")
    for label, mem, speed, crash in (
        ("stateful", mem_stateful, speed_stateful, crash_stateful),
        ("stateless", mem_stateless, speed_stateless, crash_stateless),
    ):
        result.rows.append({
            "variant": label,
            "bytes_per_flow": mem.summary["bytes_per_flow"],
            "live_flows": mem.summary["live_flows_at_sample"],
            "syn_pps": int(speed["syn_pps"]),
            "established_pps": int(speed["established_pps"]),
            "crash_ok": crash.ok,
            "crash_broken_pages": crash.broken_pages,
        })

    per_flow_stateful = mem_stateful.summary["bytes_per_flow"]
    per_flow_stateless = max(1, mem_stateless.summary["bytes_per_flow"])
    mem_ratio = per_flow_stateful / per_flow_stateless
    syn_ratio = (speed_stateless["syn_pps"] / speed_stateful["syn_pps"]
                 if speed_stateful["syn_pps"] > 0 else 0.0)
    est_ratio = (speed_stateless["established_pps"]
                 / speed_stateful["established_pps"]
                 if speed_stateful["established_pps"] > 0 else 0.0)
    # wall-clock rates are noisy: the connection-setup path must win
    # clearly, the established path must merely not materially regress
    contrast_holds = (
        mem_ratio >= 2.0
        and syn_ratio >= 1.2
        and est_ratio >= 0.6
        and crash_stateful.ok
        and not crash_stateless.ok
    )
    result.summary = {
        "bytes_per_flow_stateful": per_flow_stateful,
        "bytes_per_flow_stateless": per_flow_stateless,
        "memory_ratio": round(mem_ratio, 2),
        "syn_pps_ratio": round(syn_ratio, 3),
        "established_pps_ratio": round(est_ratio, 3),
        "crash_stateful_ok": crash_stateful.ok,
        "crash_stateless_ok": crash_stateless.ok,
        "contrast": "holds" if contrast_holds else "LOST",
    }
    result.notes = (
        "memory: dispatch+durable bytes per live flow under "
        f"{streams} concurrent streams; speed: standalone-mux dispatch "
        "(wall clock, SYN + established paths); chaos: double-crash -- "
        "the stateless leg MUST break mid-flight flows (no durable state "
        "to recover)."
    )
    return result
