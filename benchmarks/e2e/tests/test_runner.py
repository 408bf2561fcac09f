import pytest

from benchmarks.e2e import runner
from benchmarks.e2e.repetition import Repetition


def rep(setup, wall, cpu, latency, ok=90):
    return Repetition(
        build_s=setup / 2, warmup_s=setup / 2, measured_from=0.0,
        wall_s=wall, cpu_s=cpu, raw_wall_s=wall * 1.1, host_speed=0.9,
        attempted=100, terminal=100, ok=ok, events=10_000,
        latencies_s=[latency] * 100,
    )


def test_timed_metrics_are_the_median_of_the_repetitions():
    reps = [rep(1.0, 5.0, 4.0, 0.010), rep(3.0, 4.0, 5.0, 0.030),
            rep(2.0, 10.0, 3.0, 0.020, ok=60)]
    m = runner.end_to_end_metrics(reps, reps)
    assert m["setup_s"] == 2.0
    assert m["tasks_per_s"] == pytest.approx(100 / 5.0)
    assert m["sim_events_per_s"] == pytest.approx(10_000 / 5.0)
    assert m["cpu_ms_per_task"] == pytest.approx(40.0)
    assert m["task_latency_p50_ms"] == pytest.approx(20.0)
    assert m["task_latency_p90_ms"] == pytest.approx(20.0)
    # Counts are pooled, not picked.
    assert m["ok_share"] == pytest.approx(240 / 300)
    assert set(m) == set(runner.END_TO_END_UNITS)


def test_setup_can_come_from_more_repetitions_than_the_window():
    window = [rep(9.0, 5.0, 4.0, 0.010)]
    setups = [rep(1.0, 0, 0, 0), rep(2.0, 0, 0, 0)] + window
    assert runner.end_to_end_metrics(window, setups)["setup_s"] == 2.0


def test_result_line_fails_on_checks_not_on_outcomes():
    result = runner.Result("sim_churn", 7, 18.0)
    result.count([rep(1.0, 5.0, 4.0, 0.010, ok=60)])
    result.metrics = dict.fromkeys(runner.END_TO_END_UNITS, 1.0)
    line = result.final_line(runner.END_TO_END_UNITS)
    assert (line["correct"], line["attempted"], line["failed"]) == (
        True, 100, 0,
    )
    # The 40 tasks that missed are in the detail line, not hidden.
    assert result.detail["repetitions"][0]["failed"] == 40
    result.problems.append("task t9 never reached a terminal state")
    line = result.final_line(runner.END_TO_END_UNITS)
    assert (line["correct"], line["failed"]) == (False, 1)


def test_every_workload_is_listed_with_a_reason():
    assert list(runner.WORKLOADS) == [
        "sim_wide", "sim_dense", "sim_churn", "live_closed", "live_lossy",
    ]
    assert all(len(why) <= 200 for _, why in runner.WORKLOADS.values())
    units = runner.per_layer_units()
    assert len(units) <= 110
    # A coroutine's span is wall time, not self time.
    assert "runtime.cluster.start.wall_ms_per_task" in units
    assert "runtime.cluster.start.self_ms_per_task" not in units
