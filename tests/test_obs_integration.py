"""Integration tests for the observability plane: chaos forensics,
span-derived Fig. 9, and the ``repro obs`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.chaos.invariants import InvariantMonitor, Violation
from repro.chaos.scenario import run_scenario
from repro.cli import main
from repro.experiments import fig9
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

            class loop:
                @staticmethod
                def now():
                    return 0.0

        return InvariantMonitor(_Bed(), check_storage=False)

    def test_violation_embeds_flight_recorder_tail(self):
        OBS.enable(clock=lambda: 1.0)
        OBS.flight("yoda-0", "drop", "something suspicious")
        OBS.flight("chaos", "fault", "t+0.5s crash lb:0")
        monitor = self._monitor()
        monitor.ledgers["acked-byte-loss"].flag(1.0, "flow", "detail")
        violation = monitor.ledgers["acked-byte-loss"].violations[0]
        assert violation.forensics
        assert any("[chaos] fault" in line for line in violation.forensics)
        assert "flight recorder tail" in str(violation)

    def test_no_forensics_when_plane_disabled(self):
        assert not OBS.enabled
        monitor = self._monitor()
        ledger = monitor.ledgers["acked-byte-loss"]
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
        """Tolerance ZERO: spans start/end at the same timestamps the
        legacy histograms observe, so the derived breakdown is bitwise
        equal, not merely close."""
        result = fig9.run(seed=2016, rate=60.0, duration=3.0,
                          num_instances=2, derive="both")
        assert result.summary["legacy_vs_spans_max_abs_diff_ms"] == 0.0
        # sanity: the rows carry a real breakdown, not a degenerate zero
        yoda = next(r for r in result.rows if r["scheme"] == "yoda")
        assert yoda["storage_ms"] > 0.0
        assert yoda["connection_ms"] > 0.0

    def test_spans_mode_reports_span_rows(self):
        result = fig9.run(seed=2016, rate=40.0, duration=2.0,
                          num_instances=2, derive="spans")
        assert result.summary["derived_from"] == "spans"
        assert result.summary["legacy_vs_spans_max_abs_diff_ms"] == 0.0
        assert len(result.rows) == 3

    def test_bad_derive_rejected(self):
        with pytest.raises(ValueError, match="derive"):
            fig9.run(derive="nope")


class TestObsCli:
    def test_text_report(self, capsys):
        assert main(["obs", "--duration", "1.0", "--rate", "40"]) == 0
        out = capsys.readouterr().out
        assert "span summary" in out
        assert "simulated CPU profile" in out
        assert "scraped time series" in out
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
