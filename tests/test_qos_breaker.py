"""Pure unit suite for the circuit-breaker state machine.

No event loop, no testbed: every transition is driven by an explicit
``now`` argument, which is exactly what makes the breaker safe to sit on
the packet fast path.
"""

import pytest

from repro.qos import breaker
from repro.qos.breaker import BreakerBoard, BreakerState, BreakerView, CircuitBreaker


@pytest.fixture(autouse=True)
def three_failures_open(monkeypatch):
    """Three consecutive failures open a breaker here (five in a run);
    open 1.0 s and two probes are the module's own values."""
    monkeypatch.setattr(breaker, "BREAKER_FAILURE_THRESHOLD", 3)
    monkeypatch.setattr(breaker, "BREAKER_OPEN_DURATION", 1.0)
    monkeypatch.setattr(breaker, "BREAKER_HALF_OPEN_PROBES", 2)


def make(listener=None):
    return CircuitBreaker(listener)


class TestClosed:
    def test_starts_closed_and_allows(self):
        brk = make()
        assert brk.state is BreakerState.CLOSED
        assert brk.allow(0.0)

    def test_failures_below_threshold_stay_closed(self):
        brk = make()
        brk.record_failure(0.1)
        brk.record_failure(0.2)
        assert brk.state is BreakerState.CLOSED
        assert brk.allow(0.3)

    def test_threshold_failures_trip_open(self):
        brk = make()
        for t in (0.1, 0.2, 0.3):
            brk.record_failure(t)
        assert brk.state is BreakerState.OPEN
        assert not brk.allow(0.4)
        assert brk.open_count == 1

    def test_success_resets_the_failure_streak(self):
        brk = make()
        brk.record_failure(0.1)
        brk.record_failure(0.2)
        brk.record_success(0.3)
        brk.record_failure(0.4)
        brk.record_failure(0.5)
        assert brk.state is BreakerState.CLOSED


class TestOpenAndHalfOpen:
    def tripped(self):
        brk = make()
        for t in (0.1, 0.2, 0.3):
            brk.record_failure(t)
        return brk

    def test_open_blocks_until_duration_elapses(self):
        brk = self.tripped()
        assert not brk.allow(0.9)
        assert brk.state is BreakerState.OPEN
        assert brk.allow(1.3)  # 0.3 + 1.0
        assert brk.state is BreakerState.HALF_OPEN

    def test_straggler_success_while_open_is_ignored(self):
        brk = self.tripped()
        brk.record_success(0.5)
        assert brk.state is BreakerState.OPEN

    def test_probe_slots_are_metered(self):
        brk = self.tripped()
        assert brk.allow(1.3)
        brk.on_probe_sent(1.3)
        assert brk.allow(1.35)
        brk.on_probe_sent(1.35)
        assert not brk.allow(1.4)  # both slots out, no verdict yet

    def test_probe_successes_close(self):
        brk = self.tripped()
        brk.allow(1.3)
        brk.record_success(1.5)
        assert brk.state is BreakerState.HALF_OPEN
        brk.record_success(1.6)
        assert brk.state is BreakerState.CLOSED
        assert brk.allow(1.7)

    def test_probe_failure_reopens(self):
        brk = self.tripped()
        brk.allow(1.3)
        brk.record_failure(1.5)
        assert brk.state is BreakerState.OPEN
        assert brk.open_count == 2
        assert not brk.allow(1.6)

    def test_stuck_probe_slots_recycle(self):
        brk = self.tripped()
        brk.allow(1.3)
        brk.on_probe_sent(1.3)
        brk.on_probe_sent(1.35)
        assert not brk.allow(1.4)
        # probe flows died without a verdict; after another open_duration
        # the slots are reissued instead of fencing the backend forever
        assert brk.allow(2.4)
        assert brk.state is BreakerState.HALF_OPEN

    def test_listener_sees_every_transition(self):
        seen = []
        brk = make(listener=lambda old, new: seen.append((old, new)))
        for t in (0.1, 0.2, 0.3):
            brk.record_failure(t)
        brk.allow(1.3)
        brk.record_success(1.4)
        brk.record_success(1.5)
        assert seen == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]


class TestBoard:
    @pytest.fixture(autouse=True)
    def two_failures_open(self, monkeypatch):
        monkeypatch.setattr(breaker, "BREAKER_FAILURE_THRESHOLD", 2)

    def test_unknown_backend_allows(self):
        board = BreakerBoard()
        assert board.allow("srv-0", 0.0)

    def test_per_backend_isolation(self):
        board = BreakerBoard()
        board.record_failure("srv-0", 0.1)
        board.record_failure("srv-0", 0.2)
        assert not board.allow("srv-0", 0.3)
        assert board.allow("srv-1", 0.3)
        assert board.breaker("srv-0").state is BreakerState.OPEN

    def test_transition_callback_names_the_backend(self):
        seen = []
        board = BreakerBoard(on_transition=lambda b, old, new: seen.append(b))
        board.record_failure("srv-2", 0.1)
        board.record_failure("srv-2", 0.2)
        assert seen == ["srv-2"]


class _StaticView:
    def __init__(self, healthy=True):
        self.healthy = healthy

    def is_healthy(self, backend):
        return self.healthy

    def load(self, backend):
        return 0.25


class TestView:
    def test_healthy_requires_monitor_and_breaker(self, monkeypatch):
        monkeypatch.setattr(breaker, "BREAKER_FAILURE_THRESHOLD", 1)
        board = BreakerBoard()
        view = BreakerView(_StaticView(), board, clock=lambda: 5.0)
        assert view.is_healthy("srv-0")
        board.record_failure("srv-0", 5.0)
        assert not view.is_healthy("srv-0")
        assert view.is_healthy("srv-1")

    def test_monitor_veto_wins(self):
        board = BreakerBoard()
        view = BreakerView(_StaticView(healthy=False), board,
                           clock=lambda: 0.0)
        assert not view.is_healthy("srv-0")

    def test_load_passthrough_and_probe_metering(self, monkeypatch):
        monkeypatch.setattr(breaker, "BREAKER_FAILURE_THRESHOLD", 1)
        monkeypatch.setattr(breaker, "BREAKER_HALF_OPEN_PROBES", 1)
        monkeypatch.setattr(breaker, "BREAKER_OPEN_DURATION", 0.5)
        board = BreakerBoard()
        now = {"t": 0.0}
        view = BreakerView(_StaticView(), board, clock=lambda: now["t"])
        assert view.load("srv-0") == 0.25
        board.record_failure("srv-0", 0.0)
        now["t"] = 0.6
        assert view.is_healthy("srv-0")  # half-open probe admitted
        view.on_selected("srv-0")
        assert not view.is_healthy("srv-0")  # probe slot consumed
