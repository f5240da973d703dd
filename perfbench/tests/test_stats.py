"""The percentile helper reports a tail only when the sample holds it."""

import pytest

from perfbench.stats import calibrate, percentile


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    with pytest.raises(ValueError):
        percentile(values[:999], 99)


def test_median_of_a_small_sample():
    assert percentile(list(range(1, 22)), 50) == 11
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert percentile(values, 50) == 3.0


def test_out_of_range_percentile():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 0)


def test_calibration_probe_takes_measurable_time():
    assert 0.001 < calibrate() < 5.0
