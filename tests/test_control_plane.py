"""The decomposed RM control plane (repro.core.control).

Covers the refactor's contract: the task registry's snapshot/restore
round-trip keeps in-flight tasks across a backup takeover (no lost or
duplicated state), redirect targeting honors the summary staleness
bound, and the placement-policy registry resolves names and custom
policies.
"""

import inspect

import pytest

from repro.core import ResourceManager
from repro.core.allocation import (
    Allocator,
    LeastLoadedSelector,
    select_first,
    select_max_fairness,
)
from repro.core.control.placement import (
    _POLICY_FACTORIES,
    make_selector,
    policy_names,
    register_policy,
)
from repro.core.manager import RMConfig
from repro.media import MediaFormat
from repro.net import ConstantLatency, Network
from repro.overlay import OverlayNetwork, PeerSpec
from repro.overlay.failover import FailoverAgent, FailoverConfig
from repro.sim import Environment, Ids
from repro.summaries.domain_summary import DomainSummary
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskState
from repro.workloads import PopulationConfig, ScenarioConfig, build_scenario

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


_ids = Ids()


def _task(name="movie"):
    return ApplicationTask(
        name=name, qos=QoSRequirements(deadline=60.0),
        initial_state=SRC, goal_state=DST,
        origin_peer="a1", submitted_at=0.0,
        task_id=f"t{next(_ids.task)}",
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
        for name in ("paper", "first", "random", "least_loaded",
                     "round_robin"):
            assert name in policy_names()
        assert "fairness" not in policy_names()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_selector("nope")

    def test_custom_policy_plugs_into_rm(self):
        def select_last(candidates):
            return candidates[-1]

        register_policy("last", lambda rng: select_last)
        try:
            env = Environment()
            net = Network(env, ConstantLatency(0.01), bandwidth=1e7)
            rm = ResourceManager(
                env, net, "rm0", "d0",
                rm_config=RMConfig(placement_policy="last"),
            )
            assert rm.policy_name == "last"
            assert rm.allocator.selector is select_last
        finally:
            del _POLICY_FACTORIES["last"]

    def test_explicit_allocator_selector_is_the_policy(self):
        """An allocator passed to the RM never changes its policy: it
        carries the search settings, the RM config names the policy."""
        env = Environment()
        net = Network(env, ConstantLatency(0.01), bandwidth=1e7)
        template = Allocator(
            selector=LeastLoadedSelector(), visited_policy="exhaustive"
        )
        rm = ResourceManager(env, net, "rm0", "d0", allocator=template)
        assert rm.policy_name == "paper"
        assert rm.allocator.selector is select_max_fairness
        assert rm.allocator.visited_policy == "exhaustive"
        rm = ResourceManager(
            env, net, "rm1", "d1", allocator=template,
            rm_config=RMConfig(placement_policy="first"),
        )
        assert rm.policy_name == "first"
        assert rm.allocator.selector is select_first


def _rule(selector):
    """What a selector runs: the function itself, or its class."""
    return selector if inspect.isfunction(selector) else type(selector)


def _all_rms(overlay):
    """Every RM the overlay built: primaries and passive eligibles."""
    return [p for p in overlay.peers.values()
            if isinstance(p, ResourceManager)]


class TestPolicyWiring:
    """``RMConfig.placement_policy`` alone picks every RM's policy."""

    @pytest.mark.parametrize("policy", policy_names())
    def test_bare_overlay_runs_the_configured_policy(self, policy):
        env = Environment()
        net = Network(env, ConstantLatency(0.005), bandwidth=1e7)
        overlay = OverlayNetwork(
            env, net, rm_config=RMConfig(placement_policy=policy),
            enable_gossip=False,
        )
        for i in range(4):
            overlay.join(PeerSpec(peer_id=f"p{i}", power=10.0,
                                  bandwidth=2e6, uptime=0.9))
        (domain,) = overlay.domains.values()
        rms = [domain.rm] + domain.eligible
        assert len(rms) == 3 and not any(r.active for r in rms[1:])
        expected = _rule(make_selector(policy))
        for rm in rms:
            assert rm.policy_name == policy
            assert _rule(rm.allocator.selector) is expected
        if not inspect.isfunction(rms[0].allocator.selector):
            # One selector per RM: round-robin keeps per-RM use counts.
            assert len({id(r.allocator.selector) for r in rms}) == len(rms)

    @pytest.mark.parametrize("policy", policy_names())
    def test_build_scenario_rms_report_the_configured_policy(self, policy):
        cfg = ScenarioConfig(
            seed=3,
            population=PopulationConfig(n_peers=16, n_objects=4),
            rm=RMConfig(placement_policy=policy, max_peers=8),
        )
        scenario = build_scenario(cfg)
        rms = _all_rms(scenario.overlay)
        assert len(rms) > scenario.overlay.n_domains  # eligibles too
        allocator_rng = scenario.streams.get("allocator")
        for rm in rms:
            assert rm.policy_name == rm.rm_config.placement_policy == policy
            assert _rule(rm.allocator.selector) is _rule(
                make_selector(policy)
            )
            if policy == "random":
                # Every RM draws from the run's one "allocator" stream.
                assert rm.allocator.selector.rng is allocator_rng
