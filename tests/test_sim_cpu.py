"""CPU model: queueing, utilization windows, gray-failure slowdown."""

import pytest

from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop


def test_work_completes_after_cost():
    loop = EventLoop()
    cpu = CpuModel(loop)
    done = []
    cpu.execute(0.5, lambda: done.append(loop.now()))
    loop.run()
    assert done == [0.5]


def test_work_queues_fifo():
    loop = EventLoop()
    cpu = CpuModel(loop)
    done = []
    cpu.execute(0.5, done.append, "a")
    cpu.execute(0.5, done.append, "b")
    loop.run()
    assert done == ["a", "b"]
    assert loop.now() == 1.0


def test_queue_delay_reflects_backlog():
    loop = EventLoop()
    cpu = CpuModel(loop)
    cpu.execute(2.0)
    assert cpu.queue_delay() == 2.0


def test_idle_gap_is_not_busy():
    loop = EventLoop()
    cpu = CpuModel(loop)
    cpu.execute(1.0)
    loop.run(until=1.0)
    loop.run(until=4.0)  # 3s idle
    cpu.execute(1.0)
    loop.run(until=5.0)
    assert cpu.busy_seconds == pytest.approx(2.0)


def test_utilization_window():
    loop = EventLoop()
    cpu = CpuModel(loop)
    cpu.reset_window()
    cpu.execute(1.0)
    loop.run(until=2.0)
    assert cpu.utilization_window() == pytest.approx(0.5)
    cpu.reset_window()
    loop.run(until=4.0)
    assert cpu.utilization_window() == pytest.approx(0.0)


def test_negative_cost_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        CpuModel(loop).execute(-1.0)


def test_slowdown_stretches_service_time():
    loop = EventLoop()
    cpu = CpuModel(loop)
    cpu.set_slowdown(30.0)
    done = []
    cpu.execute(0.1, lambda: done.append(loop.now()))
    loop.run()
    assert done == [pytest.approx(3.0)]


def test_slowdown_reset_restores_speed():
    loop = EventLoop()
    cpu = CpuModel(loop)
    cpu.set_slowdown(10.0)
    cpu.set_slowdown(1.0)
    done = []
    cpu.execute(0.1, lambda: done.append(loop.now()))
    loop.run()
    assert done == [pytest.approx(0.1)]


def test_slowdown_leaves_queued_work_untouched():
    loop = EventLoop()
    cpu = CpuModel(loop)
    done = []
    cpu.execute(1.0, lambda: done.append(loop.now()))
    cpu.set_slowdown(10.0)  # gray failure strikes mid-burst
    cpu.execute(1.0, lambda: done.append(loop.now()))
    loop.run()
    assert done[0] == pytest.approx(1.0)  # admitted before the fault
    assert done[1] == pytest.approx(11.0)


def test_invalid_slowdown_rejected():
    with pytest.raises(ValueError):
        CpuModel(EventLoop()).set_slowdown(0.0)
