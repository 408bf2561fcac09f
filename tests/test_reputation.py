"""Reputation-gated load reports: the RM's misreporting defense.

Three layers, mirroring the implementation:

* :class:`ReputationEngine` unit tests — the signals, the asymmetric
  EWMA, the quarantine/probation state machine and the load penalty.
* :class:`DomainInfoBase` integration — the single ``effective_load``
  hook, roster forgetting and the read-only projection helper.
* End-to-end gates over the pinned adversarial scenarios — the
  defended run recovers the liar-induced miss-rate gap, quarantines
  exactly the liars, and leaves the honest control trajectory
  byte-identical.
"""

import os

import pytest

import repro
from repro.core.control.reputation import (
    PROBATION,
    PROBATION_CAPACITY,
    QUARANTINE_PENALTY,
    QUARANTINE_THRESHOLD,
    QUARANTINED,
    SUSPECT,
    TRUSTED,
    ReputationConfig,
    ReputationEngine,
)
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.monitoring.profiler import LoadReport
from repro.scenarios import ScenarioSpec, load_spec, run_spec


def report(pid="p1", load=0.0, power=10.0, t=0.0):
    return LoadReport(
        peer_id=pid, time=t, power=power, utilization=load / power,
        load=load, bw_used=0.0, queue_work=0.0, queue_length=0,
    )


def record(pid="p1", power=10.0):
    return PeerRecord(peer_id=pid, power=power, bandwidth=1e6)


def make_engine(**overrides):
    return ReputationEngine(ReputationConfig(**overrides))


def feed(engine, rec, n, load=0.0, power=None, projected=0.0, t0=0.0):
    """Send *n* reports, one per second, returning the last time."""
    power = rec.power if power is None else power
    now = t0
    for i in range(n):
        now = t0 + float(i)
        rpt = report(rec.peer_id, load=load, power=power, t=now)
        rec.last_report = rpt  # what DomainInfoBase.update_from_report does
        engine.observe_report(rpt, rec, projected, now)
    return now


class TestSignals:
    def test_honest_reports_keep_full_trust(self):
        eng = make_engine()
        rec = record()
        eng.note_join(rec)
        feed(eng, rec, 20, load=4.0)
        st = eng._states["p1"]
        assert st.state == TRUSTED and st.score == pytest.approx(1.0)
        assert eng.load_penalty("p1", rec, now=20.0) == 0.0
        assert st.signals == {}

    def test_warmup_reports_never_scored(self):
        eng = make_engine(warmup_reports=2)
        rec = record(power=30.0)  # inflated join claim
        eng.note_join(rec)
        # True power 10 vs claim 30: a lie, but inside the warmup.
        feed(eng, rec, 2, power=10.0)
        assert eng._states["p1"].signals == {}

    def test_power_mismatch_fires_without_streak_gate(self):
        eng = make_engine(warmup_reports=0)
        rec = record(power=30.0)  # join claim inflated 3x
        eng.note_join(rec)
        eng.observe_report(report(power=10.0, t=0.0), rec, 0.0, 0.0)
        st = eng._states["p1"]
        assert st.signals == {"power_mismatch": 1}
        assert st.score < 1.0

    def test_power_mismatch_quarantines_chronic_liar(self):
        eng = make_engine(warmup_reports=0)
        rec = record(power=30.0)
        eng.note_join(rec)
        feed(eng, rec, 5, power=10.0)
        st = eng._states["p1"]
        assert st.state == QUARANTINED and st.quarantines == 1
        assert eng.is_quarantined("p1", now=5.0)

    def test_power_within_tolerance_is_consistent(self):
        eng = make_engine(warmup_reports=0, power_tolerance=1.3)
        rec = record(power=10.0)
        eng.note_join(rec)
        feed(eng, rec, 10, power=12.0)  # 1.2x drift: fine
        assert eng._states["p1"].signals == {}

    def test_under_report_needs_streak(self):
        eng = make_engine(warmup_reports=0, timing_streak=3)
        rec = record(power=10.0)
        eng.note_join(rec)
        # Claims idle while the RM projects 8 units of assigned work.
        for i in range(2):
            eng.observe_report(
                report(load=0.0, t=float(i)), rec, 8.0, float(i)
            )
        assert eng._states["p1"].signals == {}
        eng.observe_report(report(load=0.0, t=2.0), rec, 8.0, 2.0)
        assert eng._states["p1"].signals == {"under_report": 1}

    def test_consistent_report_resets_under_report_streak(self):
        eng = make_engine(warmup_reports=0, timing_streak=3)
        rec = record(power=10.0)
        eng.note_join(rec)
        for i in range(2):
            eng.observe_report(
                report(load=0.0, t=float(i)), rec, 8.0, float(i)
            )
        # One honest-looking report in between resets the streak.
        eng.observe_report(report(load=6.0, t=2.0), rec, 8.0, 2.0)
        eng.observe_report(report(load=0.0, t=3.0), rec, 8.0, 3.0)
        assert eng._states["p1"].signals == {}

    def test_tiny_projection_never_judged(self):
        eng = make_engine(warmup_reports=0)
        rec = record(power=10.0)
        eng.note_join(rec)
        # 1 unit projected on a 10-power peer: proves nothing.
        feed(eng, rec, 10, load=0.0, projected=1.0)
        assert eng._states["p1"].signals == {}

    def test_isolated_timing_ding_leaves_peer_trusted(self):
        """Half-weight timing penalty: one ding cannot reach suspect."""
        eng = make_engine(warmup_reports=0, timing_streak=1)
        rec = record(power=10.0)
        eng.note_join(rec)
        eng.observe_report(report(load=0.0, t=0.0), rec, 8.0, 0.0)
        st = eng._states["p1"]
        assert st.signals == {"under_report": 1}
        assert st.state == TRUSTED
        assert eng.load_penalty("p1", rec, now=0.0) == 0.0

    def test_slow_completion_streak(self):
        eng = make_engine(warmup_reports=0, timing_streak=3)
        rec = record(power=10.0)
        eng.note_join(rec)
        feed(eng, rec, 1, load=0.0)  # claims idle
        # 1 unit of work in 10 s on a peer claiming ~10 free power.
        for i in range(3):
            eng.observe_step("p1", rec, work=1.0, elapsed=10.0,
                             now=float(i))
        assert eng._states["p1"].signals == {"slow_completion": 1}

    def test_step_ignored_when_peer_admits_busy(self):
        eng = make_engine(warmup_reports=0, idle_claim_util=0.5)
        rec = record(power=10.0)
        eng.note_join(rec)
        feed(eng, rec, 1, load=8.0)  # utilization 0.8: admits busy
        for i in range(5):
            eng.observe_step("p1", rec, work=1.0, elapsed=10.0,
                             now=float(i))
        assert eng._states["p1"].signals == {}

    def test_fast_step_resets_streak(self):
        eng = make_engine(warmup_reports=0, timing_streak=3)
        rec = record(power=10.0)
        eng.note_join(rec)
        feed(eng, rec, 1, load=0.0)
        eng.observe_step("p1", rec, work=1.0, elapsed=10.0, now=0.0)
        eng.observe_step("p1", rec, work=9.0, elapsed=1.0, now=1.0)
        eng.observe_step("p1", rec, work=1.0, elapsed=10.0, now=2.0)
        assert eng._states["p1"].signals == {}


class TestStateMachine:
    def quarantined_engine(self):
        eng = make_engine(warmup_reports=0)
        rec = record(power=30.0)
        eng.note_join(rec)
        feed(eng, rec, 6, power=10.0)
        assert eng._states["p1"].state == QUARANTINED
        return eng, rec

    def test_quarantine_penalty_is_infeasible_load(self):
        eng, rec = self.quarantined_engine()
        assert eng.load_penalty("p1", rec, now=10.0) == pytest.approx(
            rec.power * QUARANTINE_PENALTY
        )

    def test_quarantine_expires_into_probation(self):
        eng, rec = self.quarantined_engine()
        until = eng._states["p1"].quarantined_until
        assert not eng.is_quarantined("p1", now=until + 1.0)
        st = eng._states["p1"]
        assert st.state == PROBATION
        assert st.score >= QUARANTINE_THRESHOLD
        # Probation: reduced capacity, not exile.
        penalty = eng.load_penalty("p1", rec, now=until + 1.0)
        assert penalty == pytest.approx(
            rec.power * (1.0 - PROBATION_CAPACITY)
        )

    def test_probationer_recovers_to_trusted(self):
        eng, rec = self.quarantined_engine()
        until = eng._states["p1"].quarantined_until
        eng.is_quarantined("p1", now=until + 1.0)  # expire
        # Power claim fixed, reports consistent: trust climbs back.
        feed(eng, rec, 30, power=30.0, t0=until + 2.0)
        st = eng._states["p1"]
        assert st.state == TRUSTED
        assert eng.load_penalty("p1", rec, now=until + 40.0) == 0.0

    def test_relapse_escalates_quarantine_period(self):
        eng, rec = self.quarantined_engine()
        st = eng._states["p1"]
        first = st.quarantined_until  # now=5 + 30 s base period
        eng.is_quarantined("p1", now=first + 1.0)  # -> probation
        # From probation the first lying report re-quarantines.
        feed(eng, rec, 6, power=10.0, t0=first + 2.0)
        assert st.state == QUARANTINED and st.quarantines == 2
        second_period = st.quarantined_until - (first + 2.0)
        assert second_period == pytest.approx(
            eng.config.quarantine_period * eng.config.quarantine_escalation
        )

    def test_quarantine_period_capped(self):
        eng = make_engine(warmup_reports=0, quarantine_period=30.0,
                          quarantine_escalation=2.0,
                          max_quarantine_period=240.0)
        rec = record(power=30.0)
        eng.note_join(rec)
        st = None
        now = 0.0
        for _ in range(6):  # 30, 60, 120, 240, 240, 240
            feed(eng, rec, 6, power=10.0, t0=now)
            st = eng._states["p1"]
            assert st.state == QUARANTINED
            now = st.quarantined_until + 1.0
            eng.is_quarantined("p1", now=now)
        assert st.quarantined_until - now <= 240.0 + 6.0

    def test_suspect_discount_scales_with_score(self):
        eng = make_engine(warmup_reports=0)
        rec = record(power=30.0)
        eng.note_join(rec)
        feed(eng, rec, 2, power=10.0)
        st = eng._states["p1"]
        assert st.state == SUSPECT
        assert eng.load_penalty("p1", rec, now=2.0) == pytest.approx(
            rec.power * (1.0 - st.score)
        )

    def test_forget_and_unknown_peer(self):
        eng, rec = self.quarantined_engine()
        eng.forget("p1")
        assert "p1" not in eng._states
        assert eng.load_penalty("p1", rec, now=0.0) == 0.0
        assert not eng.is_quarantined("p1", now=0.0)

    def test_snapshot_shape(self):
        eng, _rec = self.quarantined_engine()
        honest = record("p2", power=10.0)
        eng.note_join(honest)
        feed(eng, honest, 5, load=2.0)
        snap = eng.snapshot(now=5.0)
        assert snap["quarantined"] == ["p1"]
        assert snap["ever_quarantined"] == ["p1"]
        assert snap["quarantines_total"] == 1
        assert snap["peers"]["p2"]["state"] == TRUSTED
        assert snap["signals"]["power_mismatch"] > 0


class TestInfoBaseHook:
    @pytest.fixture
    def info(self):
        base = DomainInfoBase("d0", "rm0")
        for pid in ("p1", "p2"):
            base.add_peer(record(pid))
        return base

    def test_no_engine_no_penalty(self, info):
        info.update_from_report(report("p1", load=4.0))
        assert info.effective_load("p1", now=0.0) == 4.0

    def test_attached_engine_penalty_added(self, info):
        eng = ReputationEngine()
        info.reputation = eng
        eng.note_join(info.peer("p1"))
        st = eng._states["p1"]
        st.state = QUARANTINED
        st.quarantined_until = 1e9
        info.update_from_report(report("p1", load=4.0))
        expected = 4.0 + 10.0 * QUARANTINE_PENALTY
        assert info.effective_load("p1", now=0.0) == pytest.approx(expected)
        # The untouched peer pays nothing.
        assert info.effective_load("p2", now=0.0) == 0.0

    def test_remove_peer_forgets_trust_state(self, info):
        eng = ReputationEngine()
        info.reputation = eng
        eng.note_join(info.peer("p1"))
        info.remove_peer("p1")
        assert "p1" not in eng._states

    def test_projected_load_reads_live_deltas(self, info):
        info.project_allocation("t1", {"p1": 2.0}, expires_at=50.0)
        info.project_allocation("t2", {"p1": 3.0}, expires_at=50.0)
        assert info.projected_load("p1", now=0.0) == pytest.approx(5.0)
        assert info.projected_load("p1", now=51.0) == 0.0
        assert info.projected_load("ghost", now=0.0) == 0.0


def _repo_root():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return os.path.dirname(src)


def _scenario(name):
    return load_spec(os.path.join(
        _repo_root(), "benchmarks", "scenarios", f"{name}.json"
    ))


INTERMITTENT_DOC = {
    "name": "liar_intermittent_gate",
    "duration": 90.0,
    "drain": 30.0,
    "base": {
        "seed": 29,
        "population": {"n_peers": 24, "n_objects": 12, "replication": 2},
        "workload": {"rate": 3.0, "deadline_slack": 2.0},
        "rm": {"max_peers": 12},
    },
    "adversaries": {
        "fraction": 0.25,
        "mode": "intermittent",
        "claimed_utilization": 0.0,
        "claim_factor": 3.0,
        "period": 20.0,
        "duty": 0.5,
    },
    "health": {"period": 1.0, "flight_recorder": False},
}


@pytest.mark.integration
class TestDefenseGate:
    """The headline bugfix gate: defense recovers the liar damage."""

    def test_defense_recovers_liar_gap(self, tmp_path):
        undefended = run_spec(_scenario("liar_peers"),
                              out_dir=str(tmp_path))
        defended = run_spec(_scenario("liar_defended"),
                            out_dir=str(tmp_path))
        liars = sorted(undefended["adversary"]["liars"])
        assert sorted(defended["adversary"]["liars"]) == liars

        # The liars inflicted real damage without the defense...
        assert undefended["summary"]["miss_rate"] > 0.15
        assert "reputation" not in undefended
        # ...and the defense claws it back under the issue's bar.
        assert defended["summary"]["miss_rate"] <= 0.08
        assert defended["summary"]["miss_rate"] < (
            undefended["summary"]["miss_rate"] / 2
        )

        rep = defended["reputation"]
        # Quarantine names the actual liars — all of them, only them.
        assert sorted(rep["ever_quarantined"]) == liars
        assert rep["quarantines_total"] >= len(liars)
        assert rep["signals"].get("power_mismatch", 0) > 0
        # No honest peer was ever quarantined, and none ends the run
        # distrusted.
        honest = {
            pid: score for pid, score in rep["trust"].items()
            if pid not in set(liars)
        }
        assert honest
        for pid, score in honest.items():
            assert score > 0.9, pid

    def test_defense_is_noise_free_on_honest_population(self, tmp_path):
        """liar_control with the defense armed: same trajectory.

        The strongest possible "within noise": with no liars to catch,
        isolated dings never leave the trusted state, the load penalty
        stays zero, and the event trajectory is *identical*.
        """
        plain = run_spec(_scenario("liar_control"), out_dir=str(tmp_path))
        armed_spec = _scenario("liar_control")
        armed_spec.base.rm.enable_defense = True
        armed = run_spec(armed_spec, out_dir=str(tmp_path))
        assert armed["events"] == plain["events"]
        assert armed["messages"] == plain["messages"]
        assert armed["summary"]["miss_rate"] == (
            plain["summary"]["miss_rate"]
        )
        rep = armed["reputation"]
        assert rep["ever_quarantined"] == []
        # Isolated dings may dent a score, but never past suspect.
        assert min(rep["trust"].values()) > 0.7

    def test_defense_catches_intermittent_liars(self, tmp_path):
        """Duty-cycled liars sink too: asymmetric EWMA at work."""
        undefended = run_spec(ScenarioSpec.from_dict(INTERMITTENT_DOC),
                              out_dir=str(tmp_path))
        armed_spec = ScenarioSpec.from_dict(INTERMITTENT_DOC)
        armed_spec.base.rm.enable_defense = True
        defended = run_spec(armed_spec, out_dir=str(tmp_path))
        liars = sorted(undefended["adversary"]["liars"])

        assert undefended["summary"]["miss_rate"] > 0.1
        assert defended["summary"]["miss_rate"] <= 0.08
        rep = defended["reputation"]
        # All duty-cycled liars caught; no honest peer ever quarantined.
        assert sorted(rep["ever_quarantined"]) == liars

    def test_defended_scenario_is_deterministic(self, tmp_path):
        a = run_spec(_scenario("liar_defended"), out_dir=str(tmp_path))
        b = run_spec(_scenario("liar_defended"), out_dir=str(tmp_path))
        assert a["events"] == b["events"]
        assert a["messages"] == b["messages"]
        assert a["reputation"] == b["reputation"]
