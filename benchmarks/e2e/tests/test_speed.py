import math

import pytest

from benchmarks.e2e import speed
from benchmarks.e2e.speed import (
    REFERENCE_ARITHMETIC_S as REF_A,
    REFERENCE_MEMORY_S as REF_M,
    Interval, SpeedMeter,
)


@pytest.fixture
def bursts(monkeypatch):
    """Script what the two parts of each calibration burst 'took'."""
    took = []
    monkeypatch.setattr(speed, "burst", lambda at: (*took.pop(0), at + 1))
    return took


def test_factor_uses_the_two_bursts_around_the_interval(bursts):
    bursts[:] = [(REF_A, REF_M), (2 * REF_A, 2 * REF_M), (2 * REF_A, 2 * REF_M)]
    meter = SpeedMeter()
    # Host went from reference speed to half speed across the slice.
    assert meter.factor() == pytest.approx(1 / 1.5)
    # Half speed on both sides: a second of wall was half a second of work.
    assert meter.factor() == pytest.approx(0.5)
    assert meter.mean_factor() == pytest.approx((1 + 0.5 + 0.5) / 3)
    assert meter.mean_factor(first_sample=1) == pytest.approx(0.5)
    assert meter._at == 3  # each burst continues where the last stopped


def test_scale_is_the_geometric_mean_of_both_signals(bursts):
    # Arithmetic at full speed, memory four times slower: half speed.
    bursts[:] = [(REF_A, 4 * REF_M), (REF_A, 4 * REF_M)]
    meter = SpeedMeter()
    assert meter.factor() == pytest.approx(math.sqrt(1.0 * 0.25))


def test_interval_scales_wall_and_cpu_but_keeps_raw():
    spent = Interval()
    spent.add(2.0, 1.5, 0.5)
    spent.add(1.0, 1.0, 1.0)
    assert (spent.wall_s, spent.cpu_s, spent.raw_wall_s) == (2.0, 1.75, 3.0)


def test_mean_factor_averages_speed_not_time(bursts):
    bursts[:] = [(REF_A, REF_M), (REF_A / 2, REF_M / 2)]
    meter = SpeedMeter()
    meter.factor()
    assert meter.mean_factor() == pytest.approx(1.5)


def test_real_burst_walks_the_ring_and_takes_measurable_time():
    arithmetic_s, memory_s, at = speed.burst(0)
    assert 1e-4 < arithmetic_s < 1.0 and 1e-4 < memory_s < 1.0
    ring = speed._ring()
    assert sorted(ring) == list(range(speed.RING_SLOTS))  # a permutation
    slot = 0
    for _ in range(speed.MEMORY_STEPS):
        slot = ring[slot]
    assert slot == at
