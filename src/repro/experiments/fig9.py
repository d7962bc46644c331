"""Figure 9 + Section 7.1 CPU: end-to-end latency breakdown and CPU.

The paper splits median request latency into baseline (Internet + server),
connection (LB-to-backend TCP setup), storage (TCPStore inserts -- YODA
only), and LB packet processing; YODA lands at 151 ms vs HAProxy's 144 ms
over a 133 ms no-LB baseline, with storage costing only 0.89 ms.

We run the same 10 KB-object workload through three deployments: no LB,
YODA, HAProxy.  The request rate is scaled down from the paper's 50K
req/s (10 instances) keeping rate/instance modest so queueing does not
dominate; the breakdown shape is the result.
"""

from __future__ import annotations

from repro.analysis.stats import median
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig


def _run_one(lb: str, seed: int, rate: float, duration: float,
             num_instances: int) -> Testbed:
    bed = Testbed(TestbedConfig(
        seed=seed, lb=lb, num_lb_instances=num_instances,
        num_store_servers=3, num_backends=4, corpus="flat",
        flat_object_bytes=10_000, client_jitter=0.004,
    ))
    gen = bed.open_loop(rate)
    bed.run(duration)
    gen.stop()
    bed.run(2.0)  # drain
    bed.generator = gen  # type: ignore[attr-defined]
    return bed


def run(
    seed: int = 2016,
    rate: float = 120.0,
    duration: float = 8.0,
    num_instances: int = 4,
) -> ExperimentResult:
    """The breakdown from the instances' per-stage latency histograms."""
    result = ExperimentResult(name="Figure 9: latency breakdown (medians, ms)")

    beds = {lb: _run_one(lb, seed, rate, duration, num_instances)
            for lb in ("none", "yoda", "haproxy")}

    def ok_latencies(bed: Testbed):
        return [r.latency for r in bed.generator.results if r.ok]

    baseline_ms = median(ok_latencies(beds["none"])) * 1e3

    def lb_row(lb: str):
        bed = beds[lb]
        total_ms = median(ok_latencies(bed)) * 1e3
        instances = (bed.yoda.instances if lb == "yoda"
                     else bed.haproxy_instances)
        connect = []
        stage_samples = {"storage_a_latency": [], "storage_b_latency": []}
        for inst in instances:
            hist = inst.metrics.histograms.get("server_connect_latency")
            if hist and len(hist):
                connect.extend(hist.samples())
            for key in stage_samples:
                h = inst.metrics.histograms.get(key)
                if h and len(h):
                    stage_samples[key].extend(h.samples())
        connect_ms = median(connect) * 1e3 if connect else 0.0
        # a flow pays storage-a once and storage-b once: sum the two medians
        storage_ms = sum(
            median(samples) * 1e3
            for samples in stage_samples.values() if samples
        )
        lb_ms = max(total_ms - baseline_ms - connect_ms - storage_ms, 0.0)
        return {
            "scheme": lb, "total_ms": total_ms, "baseline_ms": baseline_ms,
            "connection_ms": connect_ms, "storage_ms": storage_ms,
            "lb_processing_ms": lb_ms,
        }

    yoda_row = lb_row("yoda")
    hap_row = lb_row("haproxy")
    result.rows.extend([{
        "scheme": "no-LB baseline", "total_ms": baseline_ms,
        "baseline_ms": baseline_ms, "connection_ms": 0.0,
        "storage_ms": 0.0, "lb_processing_ms": 0.0,
    }, yoda_row, hap_row])
    result.summary = {
        "paper": "yoda 151 / haproxy 144 / baseline 133 ms; storage 0.89 ms",
        "storage_overhead_ms": round(yoda_row["storage_ms"], 3),
        "yoda_minus_haproxy_ms": round(
            yoda_row["total_ms"] - hap_row["total_ms"], 2
        ),
    }
    result.notes = (
        "Rate scaled down from the paper's 50K req/s testbed aggregate; "
        "the breakdown shape (storage < 1 ms; YODA slightly slower than "
        "HAProxy due to user-space packet handling) is the claim under test."
    )
    return result


def run_cpu(
    seed: int = 2016,
    rate: float = 400.0,
    duration: float = 6.0,
) -> ExperimentResult:
    """Section 7.1 CPU overhead: YODA's user-space driver costs ~2x
    HAProxy's in-kernel splicing; saturation extrapolates to ~12K req/s
    per YODA instance (paper) with the default cost calibration."""
    result = ExperimentResult(name="Section 7.1: LB instance CPU utilization")
    for lb in ("yoda", "haproxy"):
        bed = Testbed(TestbedConfig(
            seed=seed, lb=lb, num_lb_instances=1, num_store_servers=2,
            num_backends=4, corpus="flat", flat_object_bytes=10_000,
        ))
        instance = (bed.yoda.instances[0] if lb == "yoda"
                    else bed.haproxy_instances[0])
        instance.cpu.reset_window()
        gen = bed.open_loop(rate)
        bed.run(duration)
        util = instance.cpu.utilization_window()
        gen.stop()
        served = gen.ok_count()
        sat_rate = rate / util if util > 0 else float("inf")
        result.rows.append({
            "scheme": lb, "offered_req_s": rate,
            "cpu_util": round(util, 4),
            "extrapolated_saturation_req_s": round(sat_rate),
            "requests_ok": served,
        })
    yoda_util = result.rows[0]["cpu_util"]
    hap_util = result.rows[1]["cpu_util"]
    result.summary = {
        "yoda_over_haproxy_cpu": round(yoda_util / hap_util, 2) if hap_util else None,
        "paper": "~2x (100% vs 46% at 12K req/s)",
    }
    return result
