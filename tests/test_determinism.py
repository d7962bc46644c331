"""Same seed => byte-identical outcomes, across every layer.

DESIGN.md commits to this: the event loop breaks ties FIFO, all
randomness flows through SeededRng, and experiments take explicit seeds.
Without it, no failure timeline in EXPERIMENTS.md would be reviewable.
"""

from repro.experiments import fig6, fig15
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient


def run_testbed_workload(seed):
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=3, corpus="flat", flat_object_count=3,
        flat_object_bytes=60_000, trace_packets=True,
    ))
    results = []
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
    for i in range(3):
        browser.fetch(f"/obj/{i}.bin", results.append)
    bed.loop.call_later(0.4, lambda: bed.fail_lb_instances(1))
    bed.run(60.0)
    return bed, results


class TestPacketLevelDeterminism:
    def test_identical_packet_traces_for_same_seed(self):
        bed1, res1 = run_testbed_workload(seed=101)
        bed2, res2 = run_testbed_workload(seed=101)
        assert len(bed1.trace) == len(bed2.trace)
        for a, b in zip(bed1.trace, bed2.trace):
            assert (a.time, a.src, a.dst, a.seq, a.ack, a.flags) == \
                (b.time, b.src, b.dst, b.seq, b.ack, b.flags)
        assert [(r.ok, round(r.latency, 9)) for r in res1] == \
            [(r.ok, round(r.latency, 9)) for r in res2]

    def test_different_seeds_diverge(self):
        bed1, _ = run_testbed_workload(seed=101)
        bed2, _ = run_testbed_workload(seed=102)
        trace1 = [(r.time, r.src) for r in bed1.trace]
        trace2 = [(r.time, r.src) for r in bed2.trace]
        assert trace1 != trace2


class TestExperimentDeterminism:
    def test_fig6_rows_identical(self):
        r1 = fig6.run(seed=9, rule_counts=(500, 2000), lookups_per_size=200)
        r2 = fig6.run(seed=9, rule_counts=(500, 2000), lookups_per_size=200)

        def sim_columns(rows):  # drop the wall-clock column
            return [{k: v for k, v in row.items()
                     if k != "python_us_per_lookup"} for row in rows]

        assert sim_columns(r1.rows) == sim_columns(r2.rows)

    def test_fig15_rows_identical(self):
        assert fig15.run(seed=9).rows == fig15.run(seed=9).rows

    def test_assignment_deterministic(self):
        from repro.core.assignment import (
            AssignmentProblem, InstanceSpec, VipSpec, solve_greedy,
        )

        vips = [VipSpec(f"v{i}", 10.0 + i, 100 + i, 2) for i in range(10)]
        insts = [InstanceSpec(f"y{i}", 100.0, 2000) for i in range(8)]
        a1 = solve_greedy(AssignmentProblem(vips=vips, instances=insts))
        a2 = solve_greedy(AssignmentProblem(vips=vips, instances=insts))
        assert a1.mapping == a2.mapping
