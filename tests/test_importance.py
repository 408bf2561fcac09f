"""Importance-aware admission (§3.3 Importance_t) and value metrics."""

import pytest

from repro.core.manager import RMConfig
from repro.results import MetricsCollector
from repro.sim import Environment
from repro.tasks import ApplicationTask, QoSRequirements
from tests.conftest import build_live_domain


def saturate(domain, util=1.0):
    """Pin every peer's reported load high so the gate is active."""
    from repro.monitoring.profiler import LoadReport

    for pid, rec in domain.rm.info.peers.items():
        rec.last_report = LoadReport(
            peer_id=pid, time=domain.env.now, power=rec.power,
            utilization=util, load=rec.power * util, bw_used=0.0,
            queue_work=0.0, queue_length=0,
        )
        rec.reported_at = domain.env.now


class TestImportanceAdmission:
    def make(self, enabled=True):
        return build_live_domain(
            rm_config=RMConfig(
                importance_admission=enabled,
                importance_admission_util=0.5,
                # keep the estimator permissive: loads are faked high
            )
        )

    def test_gate_inactive_when_domain_idle(self):
        d = self.make()
        # First task runs (no sessions yet -> gate skipped), importance 1.
        d.submit(deadline=60.0, importance=1.0)
        d.env.run(until=1.0)
        assert d.rm.stats["admitted"] == 1

    def test_low_importance_sees_reduced_cap_under_load(self):
        """At util 0.65, the strict cap (0.7) leaves ~no headroom for a
        below-average-importance task, while the normal cap (1.0)
        would still admit it."""
        d = self.make()
        d.submit(deadline=200.0, importance=5.0)
        d.env.run(until=1.0)  # one important session running
        saturate(d, util=0.65)
        # A 30 s deadline demands ~0.5 load units per step: that fits
        # under the full cap (util 0.65 -> 1.0) but not the strict one
        # (0.65 + 0.05 > 0.7).
        acks = d.submit(deadline=30.0, importance=1.0)
        d.env.run(until=3.0)
        assert acks[0]["disposition"] == "rejected"
        assert any(
            t.meta.get("reject_reason") == "qos"
            for t in d.rm.tasks.values()
        )

    def test_high_importance_keeps_full_cap_under_load(self):
        d = self.make()
        d.submit(deadline=200.0, importance=2.0)
        d.env.run(until=1.0)
        saturate(d, util=0.65)
        acks = d.submit(deadline=30.0, importance=5.0)
        d.env.run(until=3.0)
        assert acks[0]["disposition"] == "accepted"

    def test_gate_off_admits_low_importance_at_same_load(self):
        d = self.make(enabled=False)
        d.submit(deadline=200.0, importance=5.0)
        d.env.run(until=1.0)
        saturate(d, util=0.65)
        acks = d.submit(deadline=30.0, importance=1.0)
        d.env.run(until=3.0)
        # No gate: same load, same task, but the full cap admits it.
        assert acks[0]["disposition"] == "accepted"

    def test_gate_inert_below_threshold(self):
        d = self.make()
        d.submit(deadline=200.0, importance=5.0)
        d.env.run(until=1.0)
        saturate(d, util=0.3)  # below importance_admission_util=0.5
        acks = d.submit(deadline=30.0, importance=1.0)
        d.env.run(until=3.0)
        assert acks[0]["disposition"] == "accepted"


class TestValueGoodput:
    def test_weighted_by_importance(self):
        env = Environment()
        collector = MetricsCollector(env)

        def task(importance):
            return ApplicationTask(
                name="m", qos=QoSRequirements(deadline=10.0,
                                              importance=importance),
                initial_state="a", goal_state="b", origin_peer="p",
                submitted_at=0.0,
                task_id=f"t{next(env.ids.task)}",
            )

        important = task(9.0)
        important.mark_allocated([], 1.0, "d")
        important.mark_done(5.0)           # met, value 9
        trivial = task(1.0)
        trivial.mark_rejected(1.0)         # lost, value 1
        for t in (important, trivial):
            collector.on_task_event(t, "submitted")
        summary = collector.summary()
        assert summary.value_goodput == pytest.approx(0.9)
        # Plain goodput treats them equally.
        assert summary.goodput == pytest.approx(0.5)

    def test_zero_when_no_terminal_tasks(self):
        env = Environment()
        assert MetricsCollector(env).summary().value_goodput == 0.0
