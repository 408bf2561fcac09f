"""EWMA, percentile, table formatting."""

import pytest

from repro.common.util import EWMA, fmt_table, percentile


class TestEWMA:
    def test_alpha_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                EWMA(alpha=bad)

    def test_first_sample_seeds(self):
        e = EWMA(alpha=0.5)
        assert e.update(10.0) == 10.0

    def test_get_default_before_samples(self):
        assert EWMA().get(42.0) == 42.0

    def test_smoothing_math(self):
        e = EWMA(alpha=0.5, initial=0.0)
        assert e.update(10.0) == 5.0
        assert e.update(10.0) == 7.5

    def test_alpha_one_tracks_exactly(self):
        e = EWMA(alpha=1.0, initial=3.0)
        assert e.update(8.0) == 8.0

    def test_converges_to_constant_input(self):
        e = EWMA(alpha=0.3)
        for _ in range(100):
            e.update(7.0)
        assert abs(e.get() - 7.0) < 1e-9


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    def test_single_value(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_unsorted_input_ok(self):
        assert percentile([9, 1, 5], 50) == 5.0


class TestFmtTable:
    def test_basic_alignment(self):
        out = fmt_table(["a", "bb"], [[1, 2.5]])
        lines = out.splitlines()
        assert len(lines) == 3
        assert "2.500" in lines[2]

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            fmt_table(["a"], [[1, 2]])

    def test_floatfmt(self):
        out = fmt_table(["x"], [[1.23456]], floatfmt=".1f")
        assert "1.2" in out and "1.23" not in out

    def test_header_wider_than_cells(self):
        out = fmt_table(["very_long_header"], [["x"]])
        width = len(out.splitlines()[0])
        assert all(len(line) == width for line in out.splitlines())
