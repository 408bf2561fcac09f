"""BENCHMARK.json and the code must name the same things."""

import json
import os

from benchmarks.e2e import runner
from benchmarks.e2e.__main__ import DEFAULT_SECONDS, ROOT


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def test_workloads_match():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(runner.WORKLOADS)
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == DEFAULT_SECONDS


def test_metric_names_and_units_match():
    doc = load()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == (
        runner.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == (
        runner.per_layer_units()
    )
    assert len(doc["per_layer"]) <= 110
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
