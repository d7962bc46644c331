"""Deployment inspection and the CLI runner."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.core.inspect import snapshot
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient


@pytest.fixture(scope="module")
def bed():
    return Testbed(TestbedConfig(
        seed=12, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=2, corpus="flat", flat_object_count=2,
        flat_object_bytes=20_000,
    ))


class TestSnapshot:
    def test_snapshot_structure(self, bed):
        snap = snapshot(bed.yoda)
        assert len(snap.instances) == 3
        assert len(snap.vips) == 1
        assert len(snap.stores) == 2
        assert snap.vips[0].vip == bed.vip
        assert snap.vips[0].backends_healthy == 2

    def test_snapshot_reflects_failure(self, bed):
        bed.yoda.instances[0].fail()
        bed.run(1.0)
        snap = snapshot(bed.yoda)
        victim = snap.instance(bed.yoda.instances[0].name)
        assert victim is not None and not victim.alive
        assert bed.yoda.instances[0].ip not in snap.vips[0].mapped_ips
        bed.yoda.instances[0].recover()
        bed.run(1.0)

    def test_snapshot_counts_flows(self, bed):
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.run(0.12)  # mid-flight
        snap = snapshot(bed.yoda)
        assert sum(i.flows for i in snap.instances) >= 1
        bed.run(30.0)

    def test_render_contains_sections(self, bed):
        text = snapshot(bed.yoda).render()
        assert "L7 instances" in text
        assert "VIPs" in text
        assert "TCPStore" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_quick_fig15(self, capsys):
        assert main(["run", "fig15", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out
        assert "finished in" in out

    def test_run_quick_fig6(self, capsys):
        assert main(["run", "fig6", "--quick"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_every_experiment_registered(self):
        # one CLI entry per paper table/figure (+ the CPU section, the
        # qos flash-crowd ablation, the multi-region failover study, the
        # controller-HA outage study, the stateless-dispatch ablation
        # and the elastic provisioning cost study)
        expected = {"table1", "fig6", "fig9", "sec71", "fig10", "fig12",
                    "fig12b", "fig13", "fig14", "fig15", "fig16",
                    "overload", "failover", "ctrl", "stateless",
                    "elastic"}
        assert set(EXPERIMENTS) == expected
