"""Event loop semantics: ordering, cancellation, budgets, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventLoop
from repro.sim.process import PeriodicTask, Timer


def test_events_fire_in_time_order():
    loop = EventLoop()
    order = []
    loop.call_later(2.0, order.append, "c")
    loop.call_later(1.0, order.append, "b")
    loop.call_later(0.5, order.append, "a")
    loop.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    loop = EventLoop()
    order = []
    for i in range(10):
        loop.call_at(1.0, order.append, i)
    loop.run()
    assert order == list(range(10))


def test_call_soon_runs_at_current_time():
    loop = EventLoop()
    seen = []
    loop.call_later(1.0, lambda: loop.call_soon(seen.append, loop.now()))
    loop.run()
    assert seen == [1.0]


def test_clock_advances_to_event_time():
    loop = EventLoop()
    times = []
    loop.call_later(3.5, lambda: times.append(loop.now()))
    loop.run()
    assert times == [3.5]
    assert loop.now() == 3.5


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, fired.append, 1)
    loop.call_at(5.0, fired.append, 5)
    loop.run(until=2.0)
    assert fired == [1]
    assert loop.now() == 2.0
    loop.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_even_without_events():
    loop = EventLoop()
    loop.run(until=7.0)
    assert loop.now() == 7.0


def test_run_for_is_relative():
    loop = EventLoop()
    loop.run(until=2.0)
    loop.run_for(3.0)
    assert loop.now() == 5.0


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.call_later(1.0, fired.append, 1)
    event.cancel()
    loop.run()
    assert fired == []
    assert not event.pending


def test_cancel_inside_handler():
    loop = EventLoop()
    fired = []
    later = loop.call_at(2.0, fired.append, "later")
    loop.call_at(1.0, later.cancel)
    loop.run()
    assert fired == []


def test_scheduling_in_past_raises():
    loop = EventLoop()
    loop.run(until=5.0)
    with pytest.raises(SimulationError):
        loop.call_at(1.0, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.call_later(-1.0, lambda: None)


# A NaN time used to be accepted (``nan < now`` is false) and the next run()
# never returned: no heap head ever equals NaN, nothing fires, max_events
# cannot trip.  An infinite one would park the clock at t=inf.  Both are
# refused when scheduled -- none of these cases calls run(), so where the
# check is missing they fail instead of hang.
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_time_is_refused_at_scheduling(bad):
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.call_at(bad, lambda: None)
    with pytest.raises(SimulationError):
        loop.call_later(bad, lambda: None)
    assert loop.pending_count() == 0 and len(loop._heap) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_timers_inherit_the_non_finite_check(bad):
    loop = EventLoop()
    timer = Timer(loop, lambda: None)
    with pytest.raises(SimulationError):
        timer.start(bad)
    assert not timer.armed
    # ... also when re-armed over a pending event; the old deadline is
    # disarmed first, as it was when start() was cancel() + call_later()
    timer.start(1.0)
    with pytest.raises(SimulationError):
        timer.start(bad)
    assert not timer.armed and loop.pending_count() == 0
    task = PeriodicTask(loop, bad, lambda: None)
    with pytest.raises(SimulationError):
        task.start()
    assert loop.pending_count() == 0


def test_max_events_budget():
    loop = EventLoop()

    def reschedule():
        loop.call_later(0.1, reschedule)

    loop.call_later(0.1, reschedule)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)


def test_stop_halts_run():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, fired.append, 1)
    loop.call_at(1.0, loop.stop)
    loop.call_at(1.0, fired.append, 2)
    loop.run()
    assert fired == [1]
    # remaining event still pending
    assert loop.pending_count() == 1


def test_run_not_reentrant():
    loop = EventLoop()
    errors = []

    def nested():
        try:
            loop.run()
        except SimulationError as exc:
            errors.append(exc)

    loop.call_later(0.1, nested)
    loop.run()
    assert len(errors) == 1


def test_run_returns_fired_count():
    loop = EventLoop()
    for i in range(5):
        loop.call_later(i * 0.1, lambda: None)
    assert loop.run() == 5


def test_event_fired_flag():
    loop = EventLoop()
    event = loop.call_later(0.1, lambda: None)
    loop.run()
    assert event.fired and not event.pending


# -- lazy deletion must not leak dead entries --------------------------------
#
# Regression: the old loop left every cancelled event in the heap until its
# timestamp surfaced, so N schedule/cancel cycles (the shape of TCP
# retransmission timers on a healthy network) grew the queue O(N).  The
# tombstone accounting must keep internal storage proportional to *live*
# events, with only a bounded compaction slack.

_CHURN = 20_000
# compaction triggers once tombstones exceed 64 AND outnumber live entries;
# with ~10 live anchors the depth ceiling is small and N-independent
_SLACK = 200


@pytest.mark.parametrize("delay", [0.01, 1.0])  # a packet hop, a far timer
def test_queue_depth_stays_o_live_under_churn(delay):
    loop = EventLoop()
    for i in range(10):  # long-lived timers, like health-check periods
        loop.call_later(500.0 + i, lambda: None)
    for _ in range(_CHURN):
        loop.call_later(delay, lambda: None).cancel()
    assert loop.pending_count() == 10
    assert len(loop._heap) <= 10 + _SLACK


def test_queue_drains_completely():
    loop = EventLoop()
    for i in range(100):
        ev = loop.call_later(0.01 * i, lambda: None)
        if i % 3 == 0:
            ev.cancel()
    loop.run()
    assert loop.pending_count() == 0
    assert len(loop._heap) == 0


# -- a loop advanced in slices fires what one continuous run fires ----------

# delays on a grid make same-instant events
_DELAY = st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25]),
                   st.floats(min_value=0.0, max_value=0.6))
_ACTION = st.one_of(
    st.tuples(st.just("none"), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(0, 60)),  # some other event
    st.tuples(st.just("spawn"), _DELAY),  # schedule a child from the callback
    st.tuples(st.just("rearm"), _DELAY),  # re-arm the one shared Timer
)
_SCHEDULE = st.lists(st.tuples(_DELAY, _ACTION), min_size=1, max_size=40)
# slice widths, cycled: boundaries fall between events and on their instants
_WIDTHS = st.lists(st.floats(min_value=0.001, max_value=0.3),
                   min_size=1, max_size=6)
_END = 2.0  # every delay is <= 0.6 and chains are two deep


class _Played:
    """One schedule on a fresh loop; ``log`` is what fired, in order."""

    def __init__(self, schedule):
        self.loop = EventLoop()
        self.log = []
        self.events = []
        self.timer = Timer(
            self.loop, lambda: self.log.append((self.loop.now(), "timer")))
        for delay, (action, arg) in schedule:
            self._schedule(delay, action, arg)

    def _schedule(self, delay, action, arg):
        self.events.append(self.loop.call_later(
            delay, self._fire, len(self.events), action, arg))

    def _fire(self, index, action, arg):
        self.log.append((self.loop.now(), self.events[index].seq))
        if action == "cancel":
            self.events[arg % len(self.events)].cancel()
        elif action == "spawn":
            self._schedule(arg, "none", 0)
        elif action == "rearm":
            self.timer.start(arg)


@settings(max_examples=200, deadline=None)
@given(schedule=_SCHEDULE, widths=_WIDTHS)
def test_sliced_run_fires_the_events_of_one_continuous_run(schedule, widths):
    whole = _Played(schedule)
    whole.loop.run(until=_END)
    sliced = _Played(schedule)
    loop, i = sliced.loop, 0
    while loop.now() < _END:
        loop.run(until=min(loop.now() + widths[i % len(widths)], _END))
        i += 1
    assert sliced.log == whole.log
    assert loop.now() == whole.loop.now() == _END
    assert loop.pending_count() == whole.loop.pending_count() == 0
