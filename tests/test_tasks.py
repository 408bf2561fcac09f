"""QoS requirement sets and the task lifecycle."""

import pytest

from repro.tasks import ApplicationTask, QoSRequirements, TaskOutcome, TaskState
from tests.conftest import build_live_domain


class TestQoS:
    def test_deadline_positive(self):
        with pytest.raises(ValueError):
            QoSRequirements(deadline=0.0)

    def test_importance_positive(self):
        with pytest.raises(ValueError):
            QoSRequirements(deadline=1.0, importance=0.0)

    def test_frozen(self):
        q = QoSRequirements(deadline=1.0)
        with pytest.raises(Exception):
            q.deadline = 2.0  # type: ignore[misc]


def make_task(**kw):
    defaults = dict(
        name="movie",
        qos=QoSRequirements(deadline=30.0),
        initial_state="A",
        goal_state="B",
        origin_peer="p0",
        submitted_at=100.0,
        task_id="t1",
    )
    defaults.update(kw)
    return ApplicationTask(**defaults)


class TestLifecycle:
    def test_ids_unique(self):
        # The RM names tasks from its run's ids: distinct within a run,
        # and every run numbers from t1 again.
        runs = []
        for n_tasks in (2, 1):
            domain = build_live_domain()
            for _ in range(n_tasks):
                domain.submit()
            domain.env.run(until=1.0)
            runs.append(list(domain.rm.tasks))
        assert runs == [["t1", "t2"], ["t1"]]

    def test_absolute_deadline(self):
        assert make_task().absolute_deadline == 130.0

    def test_response_time_none_until_finished(self):
        assert make_task().response_time is None

    def test_allocate_then_run_then_done_met(self):
        t = make_task()
        t.mark_allocated([("s1", "p1")], fairness=0.9, domain="d0")
        assert t.state is TaskState.ALLOCATED
        assert t.allocation_fairness == 0.9
        t.mark_running()
        t.mark_done(now=120.0)
        assert t.outcome is TaskOutcome.MET_DEADLINE
        assert t.response_time == 20.0

    def test_done_after_deadline_is_missed(self):
        t = make_task()
        t.mark_allocated([], 1.0, "d0")
        t.mark_running()
        t.mark_done(now=131.0)
        assert t.outcome is TaskOutcome.MISSED_DEADLINE

    def test_exactly_at_deadline_is_met(self):
        t = make_task()
        t.mark_allocated([], 1.0, "d0")
        t.mark_done(now=130.0)
        assert t.outcome is TaskOutcome.MET_DEADLINE

    def test_rejected(self):
        t = make_task()
        t.mark_rejected(now=101.0, reason="overload")
        assert t.state is TaskState.REJECTED
        assert t.outcome is TaskOutcome.REJECTED
        assert t.meta["reject_reason"] == "overload"

    def test_failed(self):
        t = make_task()
        t.mark_failed(now=105.0, reason="peer died")
        assert t.outcome is TaskOutcome.FAILED
        assert t.meta["fail_reason"] == "peer died"

    def test_cannot_allocate_done_task(self):
        t = make_task()
        t.mark_rejected(now=101.0)
        with pytest.raises(ValueError):
            t.mark_allocated([], 1.0, "d0")

    def test_reallocation_while_running_allowed(self):
        """Repair re-allocates a RUNNING task (§4.1)."""
        t = make_task()
        t.mark_allocated([("s1", "p1")], 0.5, "d0")
        t.mark_running()
        t.mark_allocated([("s1", "p2")], 0.7, "d0")
        assert t.allocation == [("s1", "p2")]
