"""Integration tests for the observability plane: chaos forensics,
span-derived Fig. 9, and the ``repro obs`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.chaos.invariants import AckedByteLoss, FlowAuditTable, Violation
from repro.chaos.scenario import run_scenario
from repro.cli import main
from repro.experiments.harness import Testbed, TestbedConfig
from repro.obs import OBS

from tests.test_chaos_scenarios import tiny_scenario


@pytest.fixture(autouse=True)
def obs_off_after():
    yield
    OBS.disable()


class TestChaosForensics:
    def _monitor(self):
        class _Bed:
            yoda = None
            vip = "10.0.0.1"

        bed = _Bed()
        return AckedByteLoss(bed, FlowAuditTable(bed))

    def test_violation_embeds_flight_recorder_tail(self):
        OBS.enable()
        OBS.attach_clock(lambda: 1.0)
        OBS.flight("yoda-0", "drop", "something suspicious")
        OBS.flight("chaos", "fault", "t+0.5s crash lb:0")
        monitor = self._monitor()
        monitor.flag(1.0, "flow", "detail")
        violation = monitor.violations[0]
        assert violation.forensics
        assert any("[chaos] fault" in line for line in violation.forensics)
        assert "flight recorder tail" in str(violation)

    def test_no_forensics_when_plane_disabled(self):
        assert not OBS.enabled
        ledger = self._monitor()
        ledger.flag(1.0, "flow", "detail")
        assert ledger.violations[0].forensics == []
        assert "flight recorder tail" not in str(ledger.violations[0])

    def test_scenario_violations_carry_forensic_dump(self):
        """The satellite contract: a broken run's violations embed the
        offending components' last events, including the injected fault."""
        OBS.enable()
        outcome = run_scenario(tiny_scenario(), lb="haproxy", seed=7)
        violations = [
            v for verdict in outcome.verdicts for v in verdict.violations
        ]
        assert violations, "haproxy must break under a serving-crash"
        for violation in violations:
            assert violation.forensics, (
                f"violation without forensic dump: {violation}"
            )
        assert any(
            "[chaos] fault" in line
            for v in violations for line in v.forensics
        ), "the injected fault itself must appear in the dump"

    def test_violation_str_roundtrip_without_forensics(self):
        v = Violation("flow-conservation", 1.5, "f", "gone")
        assert "flow-conservation" in str(v)


class TestFig9FromSpans:
    def test_span_derivation_matches_legacy_exactly(self):
        """Tolerance ZERO: an instance's stage spans start and end at the
        timestamps its stage histograms observe, so the successful span
        durations of a traced bed are that bed's histogram samples, bit
        for bit -- Fig. 9 reads the same breakdown from either."""
        bed = Testbed(TestbedConfig(
            seed=2016, lb="yoda", num_lb_instances=2, num_store_servers=3,
            num_backends=4, corpus="flat", flat_object_bytes=10_000,
            client_jitter=0.004,
        ))
        OBS.enable()
        OBS.attach_clock(bed.loop.now)
        gen = bed.open_loop(60.0)
        bed.run(3.0)
        gen.stop()
        bed.run(2.0)
        spans = OBS.tracer.spans
        for stage in ("storage_a", "storage_b", "server_connect"):
            durations = sorted(s.end - s.start for s in spans
                               if s.name == stage and s.end is not None
                               and (s.attrs or {}).get("ok"))
            samples = sorted(
                x for inst in bed.yoda.instances
                for x in inst.metrics.histograms[f"{stage}_latency"].samples())
            assert durations and durations == samples, stage


class TestObsCli:
    def test_text_report(self, capsys):
        assert main(["obs", "--duration", "1.0", "--rate", "40"]) == 0
        out = capsys.readouterr().out
        assert "span summary" in out
        assert "simulated CPU profile" in out
        assert not OBS.enabled  # the CLI turns the plane back off

    def test_json_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        assert main(["obs", "--duration", "1.0", "--rate", "40",
                     "--format", "json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-obs/v1"
        assert doc["obs"]["spans"]["retained"] > 0

    def test_prometheus_format(self, capsys):
        assert main(["obs", "--duration", "1.0", "--rate", "40",
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "_total{registry=" in out
