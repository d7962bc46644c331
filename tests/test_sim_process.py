"""Timer and PeriodicTask behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import EventLoop
from repro.sim.process import PeriodicTask, Timer


class TestTimer:
    def test_fires_after_delay(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now()))
        timer.start(2.0)
        loop.run()
        assert fired == [2.0]

    def test_restart_supersedes_previous(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now()))
        timer.start(1.0)
        timer.start(3.0)  # re-arm
        loop.run()
        assert fired == [3.0]

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        loop.run()
        assert fired == []

    def test_armed_flag(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        loop.run()
        assert not timer.armed

    def test_rearm_from_callback(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: None)

        def cb():
            fired.append(loop.now())
            if len(fired) < 3:
                timer.start(1.0)

        timer._callback = cb
        timer.start(1.0)
        loop.run()
        assert fired == [1.0, 2.0, 3.0]


class TestPeriodicTask:
    def test_fires_every_interval(self):
        loop = EventLoop()
        ticks = []
        task = PeriodicTask(loop, 1.0, lambda: ticks.append(loop.now()))
        task.start()
        loop.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_fire_now(self):
        loop = EventLoop()
        ticks = []
        task = PeriodicTask(loop, 1.0, lambda: ticks.append(loop.now()))
        task.start(fire_now=True)
        loop.run(until=1.5)
        assert ticks == [0.0, 1.0]

    def test_stop(self):
        loop = EventLoop()
        ticks = []
        task = PeriodicTask(loop, 1.0, lambda: ticks.append(loop.now()))
        task.start()
        loop.call_at(2.5, task.stop)
        loop.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not task.running

    def test_stop_from_within_callback(self):
        loop = EventLoop()
        ticks = []
        task = PeriodicTask(loop, 1.0, lambda: (ticks.append(1), task.stop()))
        task.start()
        loop.run(until=5.0)
        assert ticks == [1]

    def test_double_start_is_idempotent(self):
        loop = EventLoop()
        ticks = []
        task = PeriodicTask(loop, 1.0, lambda: ticks.append(loop.now()))
        task.start()
        task.start()
        loop.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PeriodicTask(EventLoop(), 0.0, lambda: None)


# ------------------------------------------------- deadline timer == old timer --
class ReferenceTimer:
    """``Timer`` as it was before it kept a deadline: every ``start``
    cancels the pending loop event and schedules a new one."""

    def __init__(self, loop, callback):
        self._loop = loop
        self._callback = callback
        self._event = None

    @property
    def armed(self):
        return self._event is not None and self._event.pending

    def start(self, delay):
        self.cancel()
        self._event = self._loop.call_later(delay, self._fire)

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()


class _RecordingLoop(EventLoop):
    """Keeps every event it hands out, so a test can count the pending
    ones that belong to a timer."""

    def __init__(self):
        super().__init__()
        self.events = []

    def call_at(self, time, fn, *args):
        event = super().call_at(time, fn, *args)
        self.events.append(event)
        return event

    def pending_for(self, timer):
        return sum(1 for ev in self.events
                   if ev.pending and getattr(ev.fn, "__self__", None) is timer)


class _World:
    """N timers of one class beside foreign events, driven by a script.
    A callback logs its instant and, while it has restarts left, re-arms
    its own timer -- nothing a callback does depends on the order of a
    same-instant tie, so the per-timer logs of the two classes compare."""

    TIMERS = 3

    def __init__(self, timer_cls):
        self.loop = _RecordingLoop()
        self.fired = [[] for _ in range(self.TIMERS)]
        self.foreign = []
        self.restarts = [[] for _ in range(self.TIMERS)]
        self.timers = [timer_cls(self.loop, lambda i=i: self._expired(i))
                       for i in range(self.TIMERS)]

    def _expired(self, i):
        self.fired[i].append(self.loop.now().hex())
        if self.restarts[i]:
            self.timers[i].start(self.restarts[i].pop())

    def apply(self, op):
        kind = op[0]
        if kind == "start":
            self.timers[op[1]].start(op[2])
        elif kind == "cancel":
            self.timers[op[1]].cancel()
        elif kind == "restart-from-callback":
            self.restarts[op[1]].append(op[2])
        elif kind == "foreign":
            self.loop.call_later(
                op[1], lambda: self.foreign.append(self.loop.now().hex()))
        else:
            self.loop.run_for(op[1])

    def view(self):
        return (self.loop.now().hex(), [t.armed for t in self.timers],
                self.fired, self.foreign)


# values 1e-9 apart, float-noise twins (0.3 against 0.1 + 0.2), and
# values that make later / equal / earlier deadlines likely
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.01, 0.05, 0.1 - 1e-9, 0.1,
                     0.1 + 1e-9, 0.15, 0.25, 0.3,
                     0.30000000000000004, 0.5, 1.0]),
    st.floats(0.0, 1.5, allow_nan=False))
_TIMER_IDS = st.integers(0, _World.TIMERS - 1)
_OPS = st.one_of(
    st.tuples(st.just("start"), _TIMER_IDS, _DELAYS),
    st.tuples(st.just("start"), _TIMER_IDS, _DELAYS),
    st.tuples(st.just("cancel"), _TIMER_IDS),
    st.tuples(st.just("restart-from-callback"), _TIMER_IDS, _DELAYS),
    st.tuples(st.just("foreign"), _DELAYS),
    st.tuples(st.just("advance"), _DELAYS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=40))
def test_deadline_timer_is_the_cancel_and_reschedule_timer(script):
    new, ref = _World(Timer), _World(ReferenceTimer)
    for op in script:
        new.apply(op)
        ref.apply(op)
        # same instants to the bit, same armed flags, after every step
        assert new.view() == ref.view(), op
        assert new.loop.pending_count() <= ref.loop.pending_count()
        for timer in new.timers:
            assert new.loop.pending_for(timer) == (1 if timer.armed else 0)
    new.loop.run()
    ref.loop.run()
    assert new.view() == ref.view()
    assert new.loop.pending_count() == ref.loop.pending_count() == 0


class TestDeadlineTimerTieOrder:
    """The one thing the deadline timer changes: against a foreign event at
    the bit-equal instant, its expiry orders by when the loop event that
    delivers it was scheduled.  All instants below are exact in binary."""

    def test_expiry_takes_the_seq_of_its_last_wake_up(self):
        loop = EventLoop()
        order = []
        timer = Timer(loop, lambda: order.append("timer"))
        timer.start(1.0)                                    # wakes at 1.0
        loop.call_at(0.5, timer.start, 1.5)                 # due 2.0, stored
        loop.call_at(0.75, loop.call_at, 2.0, order.append, "before wake-up")
        loop.call_at(1.25, loop.call_at, 2.0, order.append, "after wake-up")
        loop.run()
        # cancel-and-reschedule would have kept the seq of the start() at
        # 0.5 and fired first
        assert order == ["before wake-up", "timer", "after wake-up"]
        assert loop.now() == 2.0

    def test_equal_deadline_keeps_the_first_event(self):
        loop = EventLoop()
        order = []
        timer = Timer(loop, lambda: order.append("timer"))
        timer.start(2.0)
        loop.call_at(0.25, loop.call_at, 2.0, order.append, "foreign")
        loop.call_at(0.5, timer.start, 1.5)                 # due 2.0 again
        loop.run()
        # no wake-up was needed: the expiry is still the event of the
        # first start()
        assert order == ["timer", "foreign"]

    def test_earlier_deadline_and_cancel_are_real_cancels(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now()))
        timer.start(2.0)
        timer.start(0.5)  # earlier: the 2.0 event must not linger
        assert loop.pending_count() == 1
        loop.run()
        assert fired == [0.5] and loop.now() == 0.5
        timer.start(1.0)
        timer.start(3.0)
        timer.cancel()
        assert loop.pending_count() == 0 and not timer.armed
        loop.run()
        assert fired == [0.5] and loop.now() == 0.5
