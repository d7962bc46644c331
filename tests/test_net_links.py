"""Latency models."""

import pytest

from repro.net.addresses import Endpoint
from repro.net.links import FixedLatency, JitterLatency
from repro.net.packet import Packet
from repro.sim.random import SeededRng


PKT = Packet(src=Endpoint("1.1.1.1", 1), dst=Endpoint("2.2.2.2", 2),
             payload=b"x" * 960)


@pytest.fixture
def rng():
    return SeededRng(8)


class TestFixedLatency:
    def test_constant(self, rng):
        model = FixedLatency(0.005)
        assert model.delay(PKT, rng) == 0.005
        assert model.delay(PKT, rng) == 0.005

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-0.001)


class TestJitterLatency:
    def test_within_bounds(self, rng):
        model = JitterLatency(base=0.010, jitter=0.004)
        for _ in range(200):
            d = model.delay(PKT, rng)
            assert 0.010 <= d <= 0.014

    def test_varies(self, rng):
        model = JitterLatency(base=0.010, jitter=0.004)
        values = {model.delay(PKT, rng) for _ in range(20)}
        assert len(values) > 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JitterLatency(-1, 0)
        with pytest.raises(ValueError):
            JitterLatency(0, -1)
