#!/usr/bin/env python3
"""One end-to-end benchmark for the simulator.

    python3 benchmarks/e2e/run.py --workload conn_churn --seed 7 \\
        --seconds 12 --trace 0          # one run: what the driver calls
    python3 benchmarks/e2e/run.py --seed 2016 [--trace] [--check-aa]
                                        # the whole set, for people

One run executes one workload once, in this process, and prints one JSON
object as its last line.  Without ``--workload`` the four workloads run
one after another, each repetition in a fresh interpreter and never two
at a time, and the medians are printed with their spread.  See README.md
beside this file for what every number means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

REPETITIONS = 3  # identical repetitions inside one untraced run
SLICES = 20  # the timed section is timed in this many pieces
DISTURBED_WALL_OVER_CPU = 1.15  # a rep above this was disturbed by the host
FAILED_FETCH_MS = 1e6  # a failed fetch misses any latency limit
DETAIL_PREFIX = "detail "


def _import_simulator() -> float:
    """Import the program under test from ``src/`` and time it: a user
    pays the import on every run, so it is part of ``setup_s``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no simulator sources at {src}")
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    import layertrace  # noqa: F401  (imports every repro package used)
    import workloads  # noqa: F401
    return time.perf_counter() - t0


# ------------------------------------------------------------------ one run --
@contextlib.contextmanager
def _count_fired_events(into: Dict[str, int]):
    """Sum ``EventLoop.run``'s return values: one extra call per ``run``,
    none per event."""
    from repro.sim.events import EventLoop
    run = EventLoop.run

    def counted(loop, *args, **kwargs):
        fired = run(loop, *args, **kwargs)
        into["fired"] += fired
        return fired
    EventLoop.run = counted
    try:
        yield
    finally:
        EventLoop.run = run


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def _run_once(name: str, seed: int, seconds: float, tracer) -> Dict[str, Any]:
    """Build one world, drive it to the end, say what happened.

    Host time is read only from callbacks this function schedules on the
    simulated clock: one at the end of the warm-up (where set-up ends and
    the timed section starts) and one at each slice boundary inside the
    timed section.  They draw no randomness and touch no simulated state,
    so the schedule of every other event is what it would be without them.
    """
    from workloads import WARMUP_SIM_S, WORKLOADS, program_counters

    fired = {"fired": 0}
    mark: Dict[str, Any] = {}
    edges: List[float] = []  # host time at each slice boundary
    kv_ops: List[tuple] = []  # (started_at, simulated latency); traced runs

    with (tracer if tracer is not None else _count_fired_events(fired)):
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, seconds)
        workload.build()
        bed = workload.bed
        if tracer is not None:
            for instance in bed.yoda.instances:
                instance.tcpstore.kv.latency_listener = (
                    lambda r: kv_ops.append((r.started_at, r.latency)))

        def on_mark() -> None:
            workload.timed_from = bed.loop.now()
            mark["counters"] = program_counters(bed)
            gc.collect()
            if tracer is not None:
                tracer.begin()
            mark["cpu"] = time.process_time()
            edges.append(time.perf_counter())

        bed.loop.call_later(WARMUP_SIM_S, on_mark)
        for k in range(1, SLICES):
            bed.loop.call_later(
                WARMUP_SIM_S + workload.timed_sim_s * k / SLICES,
                lambda: edges.append(time.perf_counter()))
        workload.drive()
        edges.append(time.perf_counter())
        cpu_s = time.process_time() - mark["cpu"]
        counters = program_counters(bed)
    if tracer is not None:
        fired["fired"] = tracer.run_returns
    delta = {k: v - mark["counters"].get(k, 0) for k, v in counters.items()}

    out = workload.outcome()
    problems = list(out.problems)
    n_ok, n_issued = len(out.ok), max(out.issued, 1)
    if not n_ok:
        problems.append("no fetch resolved in the timed section")
    latencies_ms = sorted([r.latency * 1000.0 for r in out.ok]
                          + [FAILED_FETCH_MS] * (n_issued - n_ok))
    return {
        "setup_s": edges[0] - t0,
        "slices_s": [b - a for a, b in zip(edges, edges[1:])],
        "wall_s": edges[-1] - edges[0],
        "cpu_s": cpu_s,
        "delta": delta,
        "kv_latencies": [lat for at, lat in kv_ops
                         if at >= workload.timed_from],
        "problems": problems,
        "notes": out.notes,
        "violations": out.violations,
        "fingerprint": {  # must repeat exactly for one seed and --seconds
            "tx_packets": int(delta["network.tx_packets"]),
            "events_fired": fired["fired"],  # since the world was built
            "fetches_issued": n_issued, "fetches_ok": n_ok,
            "sim_fetch_p50_ms": _percentile(latencies_ms, 0.50),
            "sim_fetch_p99_ms": _percentile(latencies_ms, 0.99),
            "trace_digest": out.digest,
        },
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float, out_dir: Optional[Path] = None) -> Dict[str, Any]:
    """One run of one workload.  Returns the contract's result object
    (``correct``/``attempted``/``failed``/``metrics``) plus a ``detail``
    entry with what the whole-set command reports beside it.

    An untraced run repeats the identical simulation ``REPETITIONS`` times
    in fresh worlds.  The host only ever makes a slice slower, never
    faster, so each slice of the timed section counts at its fastest
    repetition: ``wall_s`` is the sum of those.  Set-up is the median of
    the repetitions.  A traced run is a single repetition."""
    from layertrace import LayerTracer

    tracer = LayerTracer() if trace else None
    reps = []
    for _ in range(1 if trace else REPETITIONS):
        reps.append(_run_once(name, seed, seconds, tracer))
        gc.collect()  # the world is garbage now; do not bill the next rep
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = reps[0]
    fingerprint = first["fingerprint"]
    problems = list(first["problems"])
    for i, rep in enumerate(reps[1:], 1):
        if rep["fingerprint"] != fingerprint:
            problems.append(
                f"DETERMINISM BUG: repetition {i} gave {rep['fingerprint']} "
                f"after {fingerprint}")
    n_ok, n_issued = fingerprint["fetches_ok"], fingerprint["fetches_issued"]
    tx_pkts = fingerprint["tx_packets"]
    wall_s = sum(min(rep["slices_s"][i] for rep in reps)
                 for i in range(SLICES))

    if trace:
        metrics = _per_layer_metrics(
            tracer, first["delta"], n_issued, n_ok, first["wall_s"],
            first["cpu_s"], first["kv_latencies"], first["violations"])
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"trace_{name}.json").write_text(
                json.dumps(tracer.dump(), indent=1))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(
                rep["setup_s"] for rep in reps),
            "wall_s": wall_s,
            "pkts_per_wall_s": tx_pkts / wall_s,
            "reqs_per_wall_s": n_ok / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "fetch_ok_ratio": n_ok / n_issued,
            "sim_fetch_p50_ms": fingerprint["sim_fetch_p50_ms"],
            "sim_fetch_p99_ms": fingerprint["sim_fetch_p99_ms"],
        }
    spec = PER_LAYER if trace else E2E
    if set(metrics) != set(spec):
        sys.exit("run.py: metrics emitted and BENCHMARK.json differ: "
                 f"{sorted(set(metrics) ^ set(spec))}")
    cpu_s = sum(rep["cpu_s"] for rep in reps)
    raw_wall_s = [rep["wall_s"] for rep in reps]
    return {
        "correct": not problems,
        "attempted": n_issued,
        "failed": n_issued - n_ok,
        "metrics": {k: {"value": v, "unit": spec[k]["unit"]}
                    for k, v in metrics.items()},
        "detail": {
            "workload": name, "seed": seed, "seconds": seconds,
            "traced": trace, "problems": problems, "notes": first["notes"],
            "wall_s": wall_s, "rep_wall_s": raw_wall_s, "cpu_s": cpu_s,
            "wall_over_cpu": sum(raw_wall_s) / cpu_s if cpu_s else 0.0,
            "setups_s": [import_s + rep["setup_s"] for rep in reps],
            "fetch_samples": n_ok, "violations": first["violations"],
            "loadavg_1m": os.getloadavg()[0],
            "fingerprint": fingerprint,
        },
    }


# ---------------------------------------------------------------- per layer --
# Which modules of a package count toward which *_self_s metric; a module
# of the package not listed falls to the package's last bucket.
_CORE = {"instance": "instance", "flowstate": "instance",
         "tcpstore": "tcpstore",
         "selector": "selector", "rules": "selector", "policy": "selector"}
_PLAIN_LAYERS = ("sim", "net", "tcp", "l4lb", "http", "workload", "obs",
                 "chaos")


def _bucket(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "unattributed"
    package, leaf = parts[1], parts[2] if len(parts) > 2 else ""
    if package == "core":
        return "core." + _CORE.get(leaf, "controller")
    if package == "kvstore":
        return "kvstore." + ("server" if leaf == "memcached" else "client")
    return package if package in _PLAIN_LAYERS else "unattributed"


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def _per_layer_metrics(tracer, delta: Dict[str, float], fetches_issued: int,
                       fetches_ok: int, wall_s: float, cpu_s: float,
                       kv_latencies: List[float],
                       violations: int) -> Dict[str, float]:
    from layertrace import TCPSTORE_OPS

    self_s: Dict[str, float] = {}
    for module, (_, own, _) in tracer.by_module().items():
        bucket = _bucket(module)
        self_s[bucket] = self_s.get(bucket, 0.0) + own

    def s(bucket: str) -> float:
        return self_s.get(bucket, 0.0)

    def d(counter: str) -> float:
        return delta.get(counter, 0)

    calls = tracer.calls
    events_fired = tracer.events_fired

    tx_pkts = d("network.tx_packets")
    mux_pkts = d("mux.forwarded") + d("mux.dropped")
    segments_in = calls("repro.tcp.endpoint", "TcpStack._on_packet")
    kv_ops = d("kv.set_issued") + d("kv.get_issued") + d("kv.delete_issued")
    tap_records = [rec[0] for (_, entry), rec in tracer.records.items()
                   if entry.endswith(".record")]
    chaos_records = sum(
        rec[0] for (module, entry), rec in tracer.records.items()
        if entry.endswith(".record") and _bucket(module) == "chaos")
    kv_latencies = sorted(kv_latencies)
    return {
        "sim.self_s": s("sim"),
        "sim.events_fired": events_fired,
        "sim.events_scheduled": tracer.events_scheduled,
        "sim.events_cancelled": tracer.events_cancelled,
        "sim.events_per_pkt": _per(events_fired, tx_pkts),
        "sim.us_per_event": _per(s("sim"), events_fired, 1e6),
        "net.self_s": s("net"),
        "net.tx_pkts": tx_pkts,
        "net.tx_bytes": d("tx_bytes"),
        "net.dropped_pkts": (d("network.lost_packets") + d("network.no_route")
                             + d("rx_dropped_failed")),
        "net.us_per_pkt": _per(s("net"), tx_pkts, 1e6),
        "net.pkts_per_fetch": _per(tx_pkts, fetches_ok),
        "net.trace_records": max(tap_records, default=0),
        "tcp.self_s": s("tcp"),
        "tcp.segments_in": segments_in,
        "tcp.conns_opened": tracer.conns_opened,
        "tcp.retransmits": tracer.retransmits(),
        "tcp.us_per_segment": _per(s("tcp"), segments_in, 1e6),
        "l4lb.self_s": s("l4lb"),
        "l4lb.mux_pkts": mux_pkts,
        "l4lb.mux_new_flows": tracer.mux_new_flows,
        "l4lb.flow_table_hit_ratio": (
            1.0 - tracer.mux_pins_added / mux_pkts if mux_pkts else 0.0),
        "l4lb.mux_dropped": d("mux.dropped"),
        "l4lb.us_per_pkt": _per(s("l4lb"), mux_pkts, 1e6),
        "core.instance_self_s": s("core.instance"),
        "core.instance_pkts_in": d("packets_in"),
        "core.flows_opened": d("flows_opened"),
        "core.flows_recovered": d("flows_recovered"),
        "core.recovery_lookups": (d("recovery_lookups_client")
                                  + d("recovery_lookups_server")),
        "core.recovery_miss": d("recovery_miss"),
        "core.tcpstore_self_s": s("core.tcpstore"),
        "core.tcpstore_ops": sum(
            calls("repro.core.tcpstore", f"TcpStore.{op}")
            for op in TCPSTORE_OPS),
        "core.selector_self_s": s("core.selector"),
        "core.selections": d("selections"),
        "core.controller_self_s": s("core.controller"),
        "core.us_per_pkt": _per(s("core.instance"), d("packets_in"), 1e6),
        "kvstore.client_self_s": s("kvstore.client"),
        "kvstore.server_self_s": s("kvstore.server"),
        "kvstore.sets": d("kv.set_issued"),
        "kvstore.gets": d("kv.get_issued"),
        "kvstore.deletes": d("kv.delete_issued"),
        "kvstore.timeouts": d("kv.timeouts"),
        "kvstore.retries": d("kv.retries"),
        "kvstore.read_repairs": d("kv.read_repairs"),
        "kvstore.us_per_op": _per(
            s("kvstore.client") + s("kvstore.server"), kv_ops, 1e6),
        "kvstore.sim_op_p50_ms": (
            _percentile(kv_latencies, 0.5) * 1000.0 if kv_latencies else 0.0),
        "http.self_s": s("http"),
        "http.parser_feeds": calls("repro.http.parser", "HttpParser.feed"),
        "http.parser_bytes": tracer.parser_bytes,
        "http.requests_served": d("http.requests_served"),
        "workload.self_s": s("workload"),
        "workload.fetches_issued": fetches_issued,
        "workload.fetches_ok": fetches_ok,
        "obs.self_s": s("obs"),
        "obs.spans": d("obs.spans"),
        "obs.flight_records": calls("repro.obs.plane", "ObsPlane.flight"),
        "chaos.self_s": s("chaos"),
        "chaos.records_audited": chaos_records,
        "chaos.us_per_record": _per(s("chaos"), chaos_records, 1e6),
        "chaos.violations": violations,
        "bench.traced_wall_s": wall_s,
        "bench.unattributed_s": wall_s - tracer.root_s + s("unattributed"),
        "bench.cpu_s": cpu_s,
        "bench.wall_over_cpu": _per(wall_s, cpu_s),
    }


# ---------------------------------------------------------------- reporting --
def _print_metrics(result: Dict[str, Any]) -> None:
    detail = result["detail"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  "
          f"{'traced' if detail['traced'] else 'untraced'}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  fetch samples {detail['fetch_samples']}, "
          f"wall/cpu {detail['wall_over_cpu']:.3f}, "
          f"timed section per repetition "
          f"{[round(x, 3) for x in detail['rep_wall_s']]} s, "
          f"set-ups {[round(x, 3) for x in detail['setups_s']]} s")
    for note in detail["notes"]:
        print(f"  {note}")
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_one(args: argparse.Namespace) -> int:
    import_s = _import_simulator()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s, Path(args.out) if args.out else None)
    _print_metrics(result)
    detail = result.pop("detail")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------ the whole set --
def _child(workload: str, seed: int, seconds: float, trace: bool,
           out_dir: Path) -> Dict[str, Any]:
    """One run in a fresh interpreter; its two last lines are parsed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        sys.exit(f"run.py: {' '.join(cmd)} exited {proc.returncode} "
                 f"without a result:\n{proc.stdout}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(seed: int, seconds: float, reps: int, trace: bool,
            out_dir: Path) -> Dict[str, Any]:
    """Every workload, ``reps`` untraced runs each (plus one traced run
    with ``trace``), strictly one child at a time."""
    report: Dict[str, Any] = {
        "envelope": {
            "git_sha": _git_sha(), "seed": seed, "seconds": seconds,
            "runs_per_workload": reps, "repetitions_per_run": REPETITIONS,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg(),
        },
        "workloads": {}, "failures": [],
    }
    failures: List[str] = report["failures"]
    for name in WORKLOAD_NAMES:
        runs = [_child(name, seed, seconds, False, out_dir)
                for _ in range(reps)]
        entry: Dict[str, Any] = {"end_to_end": {}, "reps": [
            r["detail"] for r in runs]}
        for metric, spec in E2E.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = _quartiles(values)
            entry["end_to_end"][metric] = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "reps": values}
        walls = [r["detail"]["wall_s"] for r in runs]
        rep_spread = (max(walls) - min(walls)) / statistics.median(walls)
        for i, run in enumerate(runs):
            detail = run["detail"]
            for problem in detail["problems"]:
                failures.append(f"{name} rep {i}: {problem}")
            if detail["violations"]:
                failures.append(f"{name} rep {i}: {detail['violations']} "
                                f"invariant violations: {detail['notes']}")
            if detail["fingerprint"] != runs[0]["detail"]["fingerprint"]:
                failures.append(
                    f"{name} rep {i}: DETERMINISM BUG, same seed gave "
                    f"{detail['fingerprint']} after "
                    f"{runs[0]['detail']['fingerprint']}")
        entry["disturbed_reps"] = [
            i for i, r in enumerate(runs)
            if r["detail"]["wall_over_cpu"] > DISTURBED_WALL_OVER_CPU]
        entry["fingerprint"] = runs[0]["detail"]["fingerprint"]
        if trace:
            traced = _child(name, seed, seconds, True, out_dir)
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            layer["bench.trace_overhead_ratio"] = (
                traced["detail"]["wall_s"] / statistics.median(walls))
            layer["bench.rep_spread"] = rep_spread
            entry["per_layer"] = layer
            entry["traced_notes"] = traced["detail"]["notes"]
            for problem in traced["detail"]["problems"]:
                failures.append(f"{name} traced: {problem}")
            a, b = traced["detail"]["fingerprint"], entry["fingerprint"]
            if a != b:
                failures.append(
                    f"{name}: the traced run changed the simulation "
                    f"({a} vs {b})")
        report["workloads"][name] = entry
        _print_workload(name, entry)
    plain, audited = (report["workloads"][n]["fingerprint"]["tx_packets"]
                      for n in ("crash_recovery", "crash_audited"))
    if plain != audited:
        failures.append(
            f"crash_recovery sent {plain} packets, crash_audited {audited}: "
            "the obs/invariant hooks perturbed the run")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.json").write_text(json.dumps(report, indent=1))
    return report


def _print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(f"\n== {name} ==")
    print(f"  {'end-to-end metric':24s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s}  unit   reps")
    for metric, m in entry["end_to_end"].items():
        print(f"  {metric:24s} {m['median']:14.6g} {m['q1']:14.6g} "
              f"{m['q3']:14.6g}  {m['unit']:6s} "
              f"{[float(f'{v:.6g}') for v in m['reps']]}")
    samples = entry["reps"][0]["fetch_samples"]
    print(f"  sim_fetch_* over {samples} fetches; lateness of the open-loop "
          "generator is 0 by construction (simulated clock)")
    for i, detail in enumerate(entry["reps"]):
        flag = ("  <-- disturbed by the host"
                if i in entry["disturbed_reps"] else "")
        print(f"  run {i}: wall_s {detail['wall_s']:.3f} from repetitions "
              f"{[round(x, 3) for x in detail['rep_wall_s']]}, wall/cpu "
              f"{detail['wall_over_cpu']:.3f}, loadavg "
              f"{detail['loadavg_1m']:.2f}{flag}")
    if "per_layer" in entry:
        print("  per-layer (one traced run):")
        for metric, value in entry["per_layer"].items():
            unit = PER_LAYER.get(metric, {"unit": "ratio"})["unit"]
            print(f"    {metric:30s} {value:16.6g} {unit}")
        for note in entry["traced_notes"]:
            print(f"    {note}")


def _worse_by(spec: Dict[str, Any], base: float, other: float) -> float:
    """Share of ``base`` by which ``other`` is worse (negative: better)."""
    change = (other - base) / base
    return change if spec["better"] == "lower" else -change


def check_aa(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Two runs of the same code must agree within every bound, both
    ways; prints the worst ratio seen per metric."""
    failures = []
    print("\n== A/A: worst disagreement per metric (share of the other "
          "run's median) ==")
    for metric, spec in E2E.items():
        worst, where = 0.0, ""
        for name in WORKLOAD_NAMES:
            a = first["workloads"][name]["end_to_end"][metric]["median"]
            b = second["workloads"][name]["end_to_end"][metric]["median"]
            for worse in (_worse_by(spec, a, b), _worse_by(spec, b, a)):
                if worse > worst:
                    worst, where = worse, name
        verdict = "ok" if worst <= spec["bound"] else "OUT OF BOUND"
        print(f"  {metric:24s} {worst:8.4f} (bound {spec['bound']}) "
              f"{where:16s} {verdict}")
        if worst > spec["bound"]:
            failures.append(f"A/A: {metric} differs by {worst:.4f} on {where}")
    for name in WORKLOAD_NAMES:
        a, b = (r["workloads"][name]["fingerprint"] for r in (first, second))
        if a != b:
            failures.append(f"A/A: {name} is not deterministic: {a} vs {b}")
    return failures


def run_all(args: argparse.Namespace) -> int:
    out_dir = Path(args.out or tempfile.mkdtemp(prefix="bench-e2e-"))
    print(f"artefacts: {out_dir}")
    report = run_set(args.seed, args.seconds, args.reps, bool(args.trace),
                     out_dir)
    failures = list(report["failures"])
    if args.check_aa:
        second = run_set(args.seed, args.seconds, args.reps, False,
                         out_dir / "aa")
        failures += second["failures"] + check_aa(report, second)
    print(f"\nenvelope: {json.dumps(report['envelope'])}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("all output checks passed" if not failures
          else f"{len(failures)} checks failed")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload once, in this process")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="host seconds the timed section is sized to")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced runs per workload (whole set)")
    parser.add_argument("--check-aa", action="store_true",
                        help="run the whole set twice and compare")
    parser.add_argument("--out", help="directory for results.json and the "
                        "trace artefacts (default: a fresh temp dir for the "
                        "whole set, nothing written for one run)")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
