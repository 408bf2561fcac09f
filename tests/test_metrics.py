"""Metrics: time series, collector, run summaries."""

import pytest

from repro.results import MetricsCollector, RunSummary, TimeSeries
from repro.sim import Environment, Ids
from repro.tasks import ApplicationTask, QoSRequirements


class TestTimeSeries:
    def test_monotonic_timestamps_enforced(self):
        ts = TimeSeries()
        ts.add(1.0, 5.0)
        with pytest.raises(ValueError):
            ts.add(0.5, 1.0)

    def test_mean(self):
        ts = TimeSeries()
        for t, v in [(0, 1.0), (1, 2.0), (2, 6.0)]:
            ts.add(t, v)
        assert ts.mean() == pytest.approx(3.0)

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.add(0.0, 10.0)   # held for 1s
        ts.add(1.0, 0.0)    # held for 9s
        ts.add(10.0, 99.0)  # terminal sample, weight 0
        assert ts.time_weighted_mean() == pytest.approx(1.0)

    def test_single_sample(self):
        ts = TimeSeries()
        ts.add(5.0, 3.0)
        assert ts.time_weighted_mean() == 3.0
        assert ts.min() == ts.max() == ts.last() == 3.0

    def test_empty_rejects_stats(self):
        ts = TimeSeries()
        for fn in (ts.mean, ts.time_weighted_mean, ts.min, ts.max, ts.last):
            with pytest.raises(ValueError):
                fn()

    def test_as_arrays(self):
        ts = TimeSeries()
        ts.add(0.0, 1.0)
        t, v = ts.as_arrays()
        assert t.tolist() == [0.0] and v.tolist() == [1.0]


_ids = Ids()


def make_task(deadline=10.0):
    return ApplicationTask(
        name="m", qos=QoSRequirements(deadline=deadline),
        initial_state="a", goal_state="b", origin_peer="p0",
        submitted_at=0.0,
        task_id=f"t{next(_ids.task)}",
    )


class TestCollector:
    def test_counts_events(self):
        env = Environment()
        collector = MetricsCollector(env)
        t = make_task()
        collector.on_task_event(t, "submitted")
        collector.on_task_event(t, "admitted")
        assert collector.counts == {"submitted": 1, "admitted": 1}

    def test_summary_outcomes(self):
        env = Environment()
        collector = MetricsCollector(env)
        met = make_task()
        met.mark_allocated([], 1.0, "d0")
        met.mark_done(5.0)
        missed = make_task()
        missed.mark_allocated([], 1.0, "d0")
        missed.mark_done(15.0)
        rejected = make_task()
        rejected.mark_rejected(1.0)
        failed = make_task()
        failed.mark_failed(2.0)
        for task in (met, missed, rejected, failed):
            collector.on_task_event(task, "submitted")
        summary = collector.summary()
        assert summary.n_met == 1
        assert summary.n_missed == 1
        assert summary.n_rejected == 1
        assert summary.n_failed == 1
        assert summary.n_completed == 2
        assert summary.mean_response == pytest.approx(10.0)
        assert summary.goodput == pytest.approx(0.25)
        assert summary.miss_rate == pytest.approx(2 / 3)


class TestRunSummary:
    def make(self, **kw):
        defaults = dict(
            duration=100.0, n_submitted=10, n_admitted=9, n_completed=8,
            n_met=6, n_missed=2, n_rejected=1, n_failed=1,
            n_redirected=0, n_repairs=0, n_reassignments=0,
            mean_response=5.0, p95_response=9.0, mean_fairness=0.8,
            min_fairness=0.5, messages=100, bytes_sent=1e6,
        )
        defaults.update(kw)
        return RunSummary(**defaults)

    def test_rates(self):
        s = self.make()
        assert s.goodput == pytest.approx(0.6)
        assert s.miss_rate == pytest.approx(3 / 9)
        assert s.rejection_rate == pytest.approx(0.1)

    def test_zero_division_guards(self):
        s = self.make(n_submitted=0, n_completed=0, n_failed=0,
                      n_missed=0, n_met=0, n_rejected=0)
        assert s.goodput == 0.0
        assert s.miss_rate == 0.0
        assert s.rejection_rate == 0.0

    def test_row_keys(self):
        row = self.make().row()
        assert {"goodput", "miss_rate", "fairness"} <= row.keys()
