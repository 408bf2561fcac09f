import pytest

from benchmarks.e2e.stats import quantile, spread, summarize


def test_quantile_is_nearest_rank():
    samples = list(range(1, 201))  # 1..200
    assert quantile(samples, 0.5) == 100
    assert quantile(samples, 0.9) == 180
    assert quantile(list(reversed(samples)), 0.9) == 180


def test_quantile_needs_ten_samples_beyond_it():
    # p90 of 100 samples leaves exactly 10 beyond: allowed.
    assert quantile(list(range(100)), 0.9) == 89
    # p90 of 99 leaves 9: refused, as is p99 of 200.
    with pytest.raises(ValueError, match="beyond"):
        quantile(list(range(99)), 0.9)
    with pytest.raises(ValueError, match="beyond"):
        quantile(list(range(200)), 0.99)


def test_quantile_rejects_bad_q():
    with pytest.raises(ValueError):
        quantile([1.0] * 100, 1.0)


def test_spread_is_iqr_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 10.0, 10.0]
    assert spread(values) == pytest.approx(0.0)
    wide = [float(v) for v in range(1, 11)]
    # statistics.quantiles(n=4) on 1..10: q1=2.75, q3=8.25, median 5.5
    assert spread(wide) == pytest.approx(5.5 / 5.5)
    assert summarize(wide)["max_over_min"] == 10.0
