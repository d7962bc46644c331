"""Property tests for the fast-path scheduler.

The optimized :class:`EventLoop` (tuple heap + lazy-deletion tombstones +
in-place compaction) must be observably identical to a naive reference
scheduler that scans a flat list for the ``(time, seq)`` minimum.  These
tests drive both with the same seeded workloads and compare the full
dispatch logs, plus targeted checks for the properties the golden-trace
suite depends on:

- same-timestamp FIFO ordering, including for events scheduled late;
- a cancelled event is never delivered, no matter when the cancel lands
  (long before its time, from an earlier event, mid same-tick batch);
- reschedule monotonicity: a re-armed timer fires exactly once, at the
  deadline set by the *last* re-arm, never at a superseded one.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventLoop
from repro.sim.process import Timer


class NaiveScheduler:
    """O(n)-per-step reference implementation of the EventLoop contract.

    No heap, no tombstones: every step scans a flat list for the
    ``(time, seq)`` minimum.  Slow but trivially correct -- the property
    tests trust this and check the optimized loop against it.
    """

    class _Ev:
        __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired")

        def __init__(self, time, seq, fn, args):
            self.time = time
            self.seq = seq
            self.fn = fn
            self.args = args
            self.cancelled = False
            self.fired = False

        def cancel(self):
            if not self.fired:
                self.cancelled = True

        @property
        def pending(self):
            return not (self.cancelled or self.fired)

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._events = []
        self._seq = 0

    def now(self):
        return self._now

    def call_at(self, time, fn, *args):
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}, before now={self._now:.6f}"
            )
        ev = self._Ev(float(time), self._seq, fn, args)
        self._seq += 1
        self._events.append(ev)
        return ev

    def call_later(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def run(self, until=None):
        fired = 0
        while True:
            live = [e for e in self._events if e.pending]
            if not live:
                break
            ev = min(live, key=lambda e: (e.time, e.seq))
            if until is not None and ev.time > until:
                break
            self._now = ev.time
            ev.fired = True
            ev.fn(*ev.args)
            fired += 1
        self._events = [e for e in self._events if e.pending]
        if until is not None and self._now < until:
            self._now = until
        return fired

    def pending_count(self):
        return sum(1 for e in self._events if e.pending)


# Delays chosen to make equal and near-equal deadlines likely: repeated
# round values, values 1e-9 apart, and float-noise twins (0.15 against
# 3 * 0.05, 0.3 against 0.1 + 0.2) that differ in the last bit only.
_INTERESTING_DELAYS = [
    0.0,
    0.001,
    0.01,
    0.05,
    0.1 - 1e-9,
    0.1,
    0.1 + 1e-9,
    0.15,
    0.15000000000000002,
    0.30000000000000004,
    0.5,
    1.0,
]


class _Fuzzer:
    """Runs one seeded workload against a scheduler and records dispatch.

    The same seed produces the same operation script on both schedulers
    *provided* dispatch order matches -- which is exactly the property
    under test; any divergence shows up as differing logs.
    """

    def __init__(self, loop, seed, steps):
        self.loop = loop
        self.rng = random.Random(seed)
        self.steps = steps
        self.log = []
        self.next_token = 0
        self.cancelled_tokens = set()
        self.handles = []  # (event, token), in creation order

    def schedule(self):
        token = self.next_token
        self.next_token += 1
        if self.rng.random() < 0.7:
            delay = self.rng.choice(_INTERESTING_DELAYS)
        else:
            delay = self.rng.uniform(0.0, 1.5)
        ev = self.loop.call_later(delay, self._fire, token)
        self.handles.append((ev, token))

    def _fire(self, token):
        assert token not in self.cancelled_tokens, (
            f"cancelled event {token} was delivered at t={self.loop.now()}"
        )
        self.log.append((round(self.loop.now(), 9), token))
        if self.steps <= 0:
            return
        for _ in range(self.rng.randint(0, 2)):
            self.steps -= 1
            self.schedule()
        if self.handles and self.rng.random() < 0.4:
            ev, tok = self.handles.pop(self.rng.randrange(len(self.handles)))
            if ev.pending:
                self.cancelled_tokens.add(tok)
            ev.cancel()
            self.log.append(("cancel", tok))


def _run_workload(loop, seed):
    fz = _Fuzzer(loop, seed, steps=300)
    for _ in range(25):
        fz.schedule()
    loop.run(until=0.4)
    for _ in range(10):
        fz.schedule()
    loop.run(until=1.1)
    loop.run()
    assert loop.pending_count() == 0
    return fz.log


@pytest.mark.parametrize("seed", range(8))
def test_random_workload_matches_reference(seed):
    fast = _run_workload(EventLoop(), seed)
    naive = _run_workload(NaiveScheduler(), seed)
    assert fast, "workload dispatched nothing; fuzzer is broken"
    if fast != naive:
        for i, (a, b) in enumerate(zip(fast, naive)):
            if a != b:
                pytest.fail(
                    f"seed {seed}: first divergence at dispatch #{i}: "
                    f"optimized={a} reference={b}"
                )
        pytest.fail(
            f"seed {seed}: logs are a prefix mismatch: "
            f"{len(fast)} vs {len(naive)} entries"
        )


def test_same_timestamp_fifo_with_late_scheduled_event():
    # Events landing at the same instant must fire in scheduling order,
    # also when one of them was scheduled shortly before the deadline.
    logs = []
    for loop in (EventLoop(), NaiveScheduler()):
        order = []
        deadline = 1.0
        loop.call_at(deadline, order.append, "early-1")
        loop.call_at(deadline, order.append, "early-2")
        loop.call_at(0.95, lambda: loop.call_at(deadline, order.append, "late"))
        loop.call_at(deadline, order.append, "early-3")
        loop.run()
        logs.append(order)
    assert logs[0] == logs[1]
    assert logs[0] == ["early-1", "early-2", "early-3", "late"]


def test_float_noise_at_slot_boundaries_matches_reference():
    # 0.30000000000000004 vs 0.3: events whose times differ only by float
    # noise must fire in time order, not in scheduling order.
    times = [0.30000000000000004, 0.3, 6 * 0.05,
             0.3 - 1e-12, 0.15000000000000002, 0.15]
    logs = []
    for loop in (EventLoop(), NaiveScheduler()):
        order = []
        for i, t in enumerate(times):
            loop.call_at(t, order.append, i)
        loop.run()
        logs.append(order)
    assert logs[0] == logs[1]


def test_cancel_within_same_tick_batch():
    # First event of a same-tick batch cancels a later one: the batched
    # dispatch must still honour the tombstone.
    for loop in (EventLoop(), NaiveScheduler()):
        fired = []
        second = loop.call_at(1.0, fired.append, "second")
        loop.call_at(1.0, second.cancel)
        loop.run()
        # NB: 'second' was scheduled first, so it fires *before* the
        # cancel runs -- cancel-after-fire is a no-op on both loops.
        assert fired == ["second"]


def test_cancel_before_fire_in_same_tick_batch():
    for loop in (EventLoop(), NaiveScheduler()):
        fired = []
        holder = {}
        loop.call_at(1.0, lambda: holder["ev"].cancel())
        holder["ev"] = loop.call_at(1.0, fired.append, "victim")
        loop.run()
        assert fired == []


def test_reschedule_monotonicity_with_timer():
    # A re-armed Timer fires exactly once, at the deadline of the last
    # start(); earlier and later deadlines are all superseded.
    loop = EventLoop()
    fired = []
    timer = Timer(loop, lambda: fired.append(loop.now()))
    timer.start(0.2)
    loop.call_at(0.1, lambda: timer.start(0.5))        # push out
    loop.call_at(0.3, lambda: timer.start(0.05))       # pull in
    loop.run()
    assert fired == [pytest.approx(0.35)]
    assert not timer.armed


@pytest.mark.parametrize("seed", range(4))
def test_reschedule_storm_fires_once_at_last_deadline(seed):
    # KV-client shape: one timer re-armed many times per op.  However the
    # re-arms interleave, exactly one delivery happens, at the final
    # deadline.
    rng = random.Random(seed)
    loop = EventLoop()
    fired = []
    timer = Timer(loop, lambda: fired.append(loop.now()))
    timer.start(5.0)  # initial far deadline, always superseded below
    last_deadline = 5.0
    at = 0.0
    for _ in range(50):
        at += rng.uniform(0.0, 0.05)
        # every delay exceeds the max gap between re-arms, so the timer
        # can never fire before the next re-arm supersedes it
        delay = rng.choice([0.06, 0.1, 0.15,
                            0.30000000000000004, 0.5, 1.0])
        last_deadline = at + delay

        def rearm(d=delay):
            timer.start(d)

        loop.call_at(at, rearm)
    loop.run()
    assert fired == [pytest.approx(last_deadline)]
