"""ASCII charts and result export."""

import csv
import io
import json

import pytest

from repro.common.util import sparkline
from repro.experiments.base import ExperimentResult
from repro.experiments.cli import result_to_csv, result_to_json


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_constant_series_is_flat(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1

    def test_extremes_use_extreme_blocks(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁" and line[1] == "█"

    def test_downsampling_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert list(line) == sorted(line)


@pytest.fixture
def result():
    r = ExperimentResult(
        experiment_id="eX",
        title="demo",
        headers=["a", "b"],
    )
    r.add_row(1, 2.5)
    r.add_row(3, 4.5)
    r.notes.append("a note")
    return r


class TestExport:
    def test_csv_round_trip(self, result):
        text = result_to_csv(result)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "2.5"]
        assert len(rows) == 3

    def test_json_structure(self, result):
        doc = json.loads(result_to_json(result))
        assert doc["experiment_id"] == "eX"
        assert doc["headers"] == ["a", "b"]
        assert doc["rows"] == [[1, 2.5], [3, 4.5]]
        assert doc["notes"] == ["a note"]

    def test_json_handles_numpy_scalars(self):
        import numpy as np

        r = ExperimentResult("eY", "np", ["x"])
        r.add_row(np.float64(1.25))
        doc = json.loads(result_to_json(r))
        assert doc["rows"] == [[1.25]]


class TestExperimentResult:
    def test_add_row_width_checked(self, result):
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column(self, result):
        assert result.column("b") == [2.5, 4.5]
        with pytest.raises(ValueError):
            result.column("nope")

    def test_render_contains_title_and_notes(self, result):
        text = result.render()
        assert "demo" in text and "a note" in text
