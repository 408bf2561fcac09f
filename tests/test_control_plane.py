"""The decomposed RM control plane (repro.core.control).

Covers the refactor's contract: the task registry's snapshot/restore
round-trip keeps in-flight tasks across a backup takeover (no lost or
duplicated state), redirect targeting honors the summary staleness
bound, and the placement-policy registry resolves names and custom
policies.
"""

import pytest

from repro.core import ResourceManager
from repro.core.control.placement import (
    CallablePolicy,
    PlacementPolicy,
    _POLICY_FACTORIES,
    make_placement_policy,
    policy_names,
    register_policy,
)
from repro.core.manager import RMConfig
from repro.media import MediaFormat
from repro.net import ConstantLatency, Network
from repro.overlay.failover import FailoverAgent, FailoverConfig
from repro.sim import Environment
from repro.summaries.domain_summary import DomainSummary
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskState

SRC = MediaFormat("MPEG-2", 640, 480, 256.0)
DST = MediaFormat("MPEG-4", 640, 480, 64.0)


def _with_backup(d):
    """Pair the live domain's RM with a passive backup."""
    backup = ResourceManager(
        d.env, d.net, "rmb", "d0", active=False,
        on_task_event=lambda t, e: d.events.append(
            (d.env.now, t.task_id, e)
        ),
    )
    agent = FailoverAgent(
        d.rm, backup,
        FailoverConfig(sync_period=1.0, dead_after_periods=2.0),
    )
    return backup, agent


class TestTakeoverRoundTrip:
    """TaskRegistry snapshot/restore through a backup-RM takeover."""

    def test_inflight_task_survives_takeover_exactly_once(self, live_domain):
        d = live_domain
        backup, agent = _with_backup(d)
        acks = d.submit(deadline=120.0)
        d.env.run(until=3.0)
        assert acks[0]["disposition"] == "accepted"
        task_id = acks[0]["task_id"]
        # In flight on the primary, replicated by at least one sync.
        assert task_id in d.rm.sessions
        assert agent.last_snapshot is not None
        assert task_id in agent.last_snapshot["tasks"]
        primary_tasks = set(d.rm.tasks)

        d.rm.fail()
        d.env.run(until=150.0)

        assert agent.took_over and backup.active
        # Round trip: every replicated task restored, none invented.
        assert set(backup.tasks) == primary_tasks
        # The in-flight task finished under the new RM, exactly once.
        assert backup.tasks[task_id].state is TaskState.DONE
        assert backup.stats["completed"] == 1
        assert d.rm.stats["completed"] == 0
        done = [1 for _, tid, e in d.events
                if tid == task_id and e == "completed"]
        assert len(done) == 1

    def test_restored_sessions_are_live_not_copies(self, live_domain):
        d = live_domain
        backup, agent = _with_backup(d)
        d.submit(deadline=120.0)
        d.env.run(until=3.0)
        d.rm.fail()
        d.env.run(until=8.0)  # takeover, task still running
        assert backup.active
        assert backup.sessions, "session state must survive the restore"
        for session in backup.sessions.values():
            assert backup.info.service_graphs[session.task_id]

    def test_snapshot_round_trips_summary_stamps(self, live_domain):
        d = live_domain
        backup, _agent = _with_backup(d)
        summary = DomainSummary("dX", "rmX").rebuild(
            ["movie"], [], 2, 0.25, geometry=(256, 3)
        )
        d.rm.known_rms["rmX"] = "dX"
        d.rm.info.note_summary("rmX", summary, now=7.5)
        backup.restore_state(d.rm.snapshot_state())
        assert backup.info.remote_summaries["rmX"] is summary
        assert backup.info.summary_received_at["rmX"] == 7.5

    def test_restore_tolerates_snapshot_without_stamps(self, live_domain):
        """Snapshots from pre-staleness primaries restore cleanly."""
        d = live_domain
        backup, _agent = _with_backup(d)
        snapshot = d.rm.snapshot_state()
        del snapshot["summary_received_at"]
        backup.restore_state(snapshot)
        assert backup.info.summary_received_at == {}


def _task(name="movie"):
    return ApplicationTask(
        name=name, qos=QoSRequirements(deadline=60.0),
        initial_state=SRC, goal_state=DST,
        origin_peer="a1", submitted_at=0.0,
    )


def _summary(rm_id, domain, objects, mean_util):
    return DomainSummary(domain, rm_id).rebuild(
        objects, [], 2, mean_util, geometry=(256, 3)
    )


class TestRedirectStaleness:
    """pick_redirect_target under RMConfig.redirect_summary_max_age."""

    def build(self, max_age):
        env = Environment()
        net = Network(env, ConstantLatency(0.01), bandwidth=1e7)
        rm = ResourceManager(
            env, net, "rmA", "dA",
            rm_config=RMConfig(redirect_summary_max_age=max_age),
        )
        return rm

    def test_fresh_summary_targets_owning_domain(self):
        rm = self.build(max_age=5.0)
        rm.known_rms["rmB"] = "dB"
        rm.info.note_summary(
            "rmB", _summary("rmB", "dB", ["movie"], 0.2), now=-1.0
        )
        assert rm.admission.pick_redirect_target(_task()) == "rmB"

    def test_stale_summary_demoted_to_fallback(self):
        rm = self.build(max_age=5.0)
        rm.known_rms["rmB"] = "dB"
        rm.known_rms["rmC"] = "dC"
        # rmB's summary claims the object but is long stale; rmC is
        # fresh, busier, and also claims it: fresh wins.
        rm.info.note_summary(
            "rmB", _summary("rmB", "dB", ["movie"], 0.1), now=-50.0
        )
        rm.info.note_summary(
            "rmC", _summary("rmC", "dC", ["movie"], 0.8), now=-1.0
        )
        assert rm.admission.pick_redirect_target(_task()) == "rmC"

    def test_all_stale_still_forwards_blind(self):
        """Demotion is not rejection: a stale-only roster still tries."""
        rm = self.build(max_age=5.0)
        rm.known_rms["rmB"] = "dB"
        rm.info.note_summary(
            "rmB", _summary("rmB", "dB", ["movie"], 0.1), now=-50.0
        )
        assert rm.admission.pick_redirect_target(_task()) == "rmB"

    def test_default_trusts_any_age(self):
        rm = self.build(max_age=None)
        rm.known_rms["rmB"] = "dB"
        rm.info.note_summary(
            "rmB", _summary("rmB", "dB", ["movie"], 0.1), now=-1e6
        )
        assert rm.admission.pick_redirect_target(_task()) == "rmB"

    def test_unstamped_summary_counts_as_fresh(self):
        """Hand-installed summaries (no gossip receipt) are trusted."""
        rm = self.build(max_age=5.0)
        rm.known_rms["rmB"] = "dB"
        rm.info.remote_summaries["rmB"] = _summary(
            "rmB", "dB", ["movie"], 0.2
        )
        assert rm.admission.pick_redirect_target(_task()) == "rmB"


class TestPolicyRegistry:
    def test_builtin_names(self):
        for name in ("paper", "fairness", "first", "random",
                     "least_loaded", "round_robin"):
            assert name in policy_names()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_placement_policy("nope")

    def test_fairness_aliases_paper(self):
        assert make_placement_policy("fairness").name == "paper"

    def test_custom_policy_plugs_into_rm(self):
        class LastPolicy(PlacementPolicy):
            name = "last"

            def select(self, candidates):
                return candidates[-1]

        register_policy("last", lambda rng: LastPolicy())
        try:
            env = Environment()
            net = Network(env, ConstantLatency(0.01), bandwidth=1e7)
            rm = ResourceManager(
                env, net, "rm0", "d0",
                rm_config=RMConfig(placement_policy="last"),
            )
            assert rm.policy_name == "last"
        finally:
            del _POLICY_FACTORIES["last"]

    def test_explicit_allocator_selector_is_the_policy(self):
        """Pre-built allocators keep their selector (parity path)."""
        from repro.baselines.selectors import make_allocator

        env = Environment()
        net = Network(env, ConstantLatency(0.01), bandwidth=1e7)
        rm = ResourceManager(
            env, net, "rm0", "d0",
            allocator=make_allocator("least_loaded"),
        )
        assert rm.policy_name == "least_loaded"

    def test_policy_name_overrides_allocator_selector(self):
        from repro.baselines.selectors import make_allocator

        env = Environment()
        net = Network(env, ConstantLatency(0.01), bandwidth=1e7)
        rm = ResourceManager(
            env, net, "rm0", "d0",
            allocator=make_allocator("least_loaded"),
            policy="paper",
        )
        assert rm.policy_name == "paper"

    def test_callable_policy_derives_names(self):
        from repro.baselines.selectors import RandomSelector, select_first

        assert CallablePolicy(select_first).name == "first"
        assert CallablePolicy(RandomSelector()).name == "random"
