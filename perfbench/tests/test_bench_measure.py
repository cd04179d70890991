"""The resolution rule and order statistics of :mod:`measure`."""

import statistics
import time

from measure import REFERENCE_UNIT_S, HostSpeed, compare, percentile, spread


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0


def test_spread_is_the_interquartile_distance():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == q3 - q1
    assert spread([1.0, 4.0]) == 3.0


def test_difference_inside_the_noise_is_below_resolution_not_negative():
    base = [1.00, 1.10, 0.95, 1.05, 1.02]
    new = [0.99, 1.01, 1.00, 0.98, 1.03]  # median lower, inside the spread
    result = compare(base, new)
    assert not result.resolved
    assert result.relative == 0.0
    assert result.verdict() == "below resolution"


def test_difference_beyond_the_noise_is_reported_with_its_sign():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    new = [1.30, 1.31, 1.29, 1.30, 1.32]
    result = compare(base, new)
    assert result.resolved
    assert abs(result.relative - 0.30) < 1e-9
    assert result.verdict() == "+30.00%"


def test_host_speed_scales_by_the_samples_near_the_operation():
    speed = HostSpeed()
    speed.times = [0.0, 1.0, 2.0, 10.0, 11.0]
    speed.units = [REFERENCE_UNIT_S] * 3 + [2 * REFERENCE_UNIT_S] * 2
    assert speed.scale(0.5, 1.5) == 1.0
    # A host running the unit at half speed halves the scaled time.
    assert speed.scale(10.2, 10.8) == 0.5


def test_host_speed_samples_inside_the_measured_code_and_counts_its_time():
    speed = HostSpeed(interval=0.005)
    with speed.sampling():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(1000))
        with speed.paused():
            paused_from = len(speed.units)
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                sum(range(1000))
            assert len(speed.units) == paused_from
    assert speed.units and speed.spent >= sum(speed.units)
