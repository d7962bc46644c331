"""Systematic failure injection: the storage-before-ACK invariant.

The paper's guiding principle (Section 4.2): every packet a YODA instance
ACKs is persisted first, so an instance crash at *any* protocol step can
never lose acknowledged state.  These tests sweep failure times across
the whole flow lifetime (connection phase, tunneling, teardown) and
combine instance failures with store failures and control-plane events --
the flow must survive every time, and the chaos invariant monitor audits
every packet of every run while it does.
"""

import pytest

from repro.chaos.invariants import InvariantMonitor
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient


def make_bed(object_bytes=1_200_000, **overrides):
    defaults = dict(
        seed=77, lb="yoda", num_lb_instances=4, num_store_servers=3,
        num_backends=3, corpus="flat", flat_object_count=2,
        flat_object_bytes=object_bytes, client_jitter=0.0,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def start_fetch(bed, path="/obj/0.bin", timeout=30.0):
    results = []
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=timeout)
    browser.fetch(path, results.append)
    return results


def fail_serving(bed):
    for inst in bed.yoda.instances:
        if inst.flows:
            inst.fail()
            return inst
    return None


def attach_monitor(bed):
    monitor = InvariantMonitor(bed)
    bed.network.add_trace(monitor.table)
    return monitor


def assert_invariants(bed, monitor):
    crashed = [i.name for i in bed.yoda.instances if i.host.failed]
    verdicts = monitor.finalize(strict_before=bed.loop.now(),
                                exclude_instances=crashed)
    bad = [str(v.violations[0]) for v in verdicts if not v.ok]
    assert not bad, f"invariant violations: {bad}"


# the client SYN leaves at t=1.0 (after settle); one-way latency 30 ms.
# This grid brackets every protocol step: before the SYN arrives, during
# storage-a, around the SYN-ACK, during header collection, during the
# server handshake + storage-b, early/mid/late tunneling.
FAIL_TIMES = [1.015, 1.031, 1.032, 1.06, 1.091, 1.093, 1.095, 1.12, 1.3,
              1.6, 2.0, 2.5]


@pytest.mark.parametrize("fail_at", FAIL_TIMES)
@pytest.mark.parametrize("kill_store", [False, True],
                         ids=["instance-only", "instance+store"])
def test_flow_survives_failure_at_any_step(fail_at, kill_store):
    bed = make_bed()
    monitor = attach_monitor(bed)
    results = start_fetch(bed)

    def strike():
        if kill_store:
            bed.yoda.store_servers[0].fail()
        fail_serving(bed)

    bed.loop.call_at(fail_at, strike)
    bed.run(120.0)
    assert results, f"no result for fail_at={fail_at}"
    assert results[0].ok, (
        f"flow broke for fail_at={fail_at}: {results[0].error}"
    )
    assert len(results[0].response.body) == 1_200_000
    assert results[0].retries_used == 0
    assert_invariants(bed, monitor)


def test_flow_survives_two_sequential_failures():
    """The recovered flow is itself recoverable (state re-persisted)."""
    bed = make_bed(num_lb_instances=6)
    results = start_fetch(bed)

    bed.loop.call_at(1.4, lambda: fail_serving(bed))
    bed.loop.call_at(4.5, lambda: fail_serving(bed))
    bed.run(180.0)
    assert results and results[0].ok


def test_flow_survives_store_replica_failure_mid_flow():
    """Killing one TCPStore replica mid-flow must not matter: reads fall
    to the surviving replica."""
    bed = make_bed()
    results = start_fetch(bed)

    def kill_one_store_then_instance():
        bed.yoda.store_servers[0].fail()
        bed.loop.call_later(1.0, lambda: fail_serving(bed))

    bed.loop.call_at(1.2, kill_one_store_then_instance)
    bed.run(120.0)
    assert results and results[0].ok


def test_new_flows_work_after_store_server_dies():
    bed = make_bed(object_bytes=30_000)
    bed.yoda.store_servers[0].fail()
    bed.run(1.5)  # monitor drops it from the ring
    results = start_fetch(bed)
    bed.run(20.0)
    assert results and results[0].ok


def test_failure_during_policy_update():
    """Instance failure and a policy change in the same window."""
    from repro.core.policy import weighted_split

    bed = make_bed()
    results = start_fetch(bed)

    def chaos():
        controller = bed.yoda.controller
        new = controller.policies[bed.vip].updated(
            rules=[weighted_split("only-1", "*", {"srv-1": 1.0})]
        )
        controller.update_policy(new)
        fail_serving(bed)

    bed.loop.call_at(1.4, chaos)
    bed.run(120.0)
    assert results and results[0].ok


def test_failure_during_graceful_removal_of_another_instance():
    bed = make_bed(num_lb_instances=6)
    results = start_fetch(bed)

    def chaos():
        serving = None
        for inst in bed.yoda.instances:
            if inst.flows:
                serving = inst
                break
        idle = next(i for i in bed.yoda.instances
                    if i is not serving and not i.host.failed)
        bed.yoda.controller.remove_instance(idle.name)
        if serving is not None:
            serving.fail()

    bed.loop.call_at(1.4, chaos)
    bed.run(120.0)
    assert results and results[0].ok


def test_recovered_instance_can_rejoin_and_serve():
    bed = make_bed(object_bytes=40_000)
    victim = fail_after_first = None
    results = start_fetch(bed)
    bed.run(10.0)
    assert results[0].ok
    victim = bed.yoda.instances[0]
    victim.fail()
    bed.run(2.0)
    victim.recover()
    bed.run(2.0)
    # the controller put it back into the mapping; new flows succeed
    more = start_fetch(bed, path="/obj/1.bin")
    bed.run(20.0)
    assert more and more[0].ok


def test_total_lb_outage_then_recovery():
    """Every instance dies; flows stall; instances return; client SYN
    retransmission (3 s) establishes service again with no app error for
    new requests."""
    bed = make_bed(object_bytes=30_000)
    for inst in bed.yoda.instances:
        inst.fail()
    results = start_fetch(bed)
    bed.loop.call_later(2.0, lambda: [i.recover() for i in bed.yoda.instances])
    bed.run(60.0)
    assert results and results[0].ok


def test_backend_crash_midflow_breaks_cleanly():
    """YODA does not (yet) replay requests to a new backend (paper
    footnote 3): a backend crash surfaces as a client-visible failure,
    never as a hang beyond the HTTP timeout."""
    bed = make_bed(object_bytes=3_000_000, num_backends=1)
    results = start_fetch(bed, timeout=15.0)
    bed.loop.call_at(1.08, bed.backends["srv-0"].fail)
    bed.run(90.0)
    assert results
    assert not results[0].ok
    assert results[0].latency <= 16.0
