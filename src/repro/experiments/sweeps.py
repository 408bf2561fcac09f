"""The sweep table: E1–E13, one row each, served by one runner.

A row names its axes, its metrics and a ``measure(seed, duration,
*cell)`` that runs one simulation and returns one value per metric.
:meth:`Sweep.run` walks every cell of the axes (outermost first),
averages ``measure`` over the row's seeds in that cell, and adds one
table row per cell.  A ``measure``'s docstring names its experiment
(``repro-experiments --list`` prints it); DESIGN.md §4 gives the claim
each row reproduces and EXPERIMENTS.md the recorded outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from repro.core import protocol
from repro.core.control.placement import policy_names
from repro.core.manager import RMConfig
from repro.experiments.base import ExperimentResult
from repro.gossip.agent import GossipConfig
from repro.overlay.churn import ChurnConfig
from repro.overlay.failover import FailoverConfig
from repro.workloads import (
    PopulationConfig, Scenario, ScenarioConfig, WorkloadConfig, build_scenario,
)


@dataclass(frozen=True)
class Sweep:
    """One experiment: a parameter grid and what to measure per cell."""

    title: str
    #: ``(header, quick values, full values)``, outermost loop first, or
    #: ``(header, values)`` for both modes.  A tuple header spreads a
    #: tuple value over that many columns.
    axes: Sequence[Tuple[Any, ...]]
    metrics: Sequence[str]
    measure: Callable[..., Sequence[float]]
    note: str
    #: Simulated seconds per run: ``(quick, full)``.
    durations: Tuple[float, float]
    #: Seeds 1..n per cell in full mode; quick mode runs seed 1 only.
    seeds: int = 3

    def run(self, exp_id: str, quick: bool = False) -> ExperimentResult:
        heads = [axis[0] for axis in self.axes]
        result = ExperimentResult(
            exp_id, self.title,
            [*itertools.chain(*map(_spread, heads, heads)), *self.metrics],
            notes=[self.note],
        )
        duration = self.durations[0 if quick else 1]
        seeds = [1] if quick else range(1, self.seeds + 1)
        grid = [axis[1] if quick else axis[-1] for axis in self.axes]
        for cell in itertools.product(*grid):
            samples = [self.measure(seed, duration, *cell) for seed in seeds]
            result.add_row(
                *itertools.chain(*map(_spread, heads, cell)),
                *[float(np.mean([float(v) for v in column]))
                  for column in zip(*samples)],
            )
        return result


def _spread(head: Any, value: Any) -> Tuple[Any, ...]:
    """A cell's columns: a tuple header takes a tuple value apart."""
    return value if isinstance(head, tuple) else (value,)


def _scenario(seed: int, **fields: Any) -> Scenario:
    return build_scenario(ScenarioConfig(seed=seed, **fields))


def _one_domain(seed, duration, policy, rate, slack, power_cv=0.5,
                visited="paper"):
    """E1, E2 and E10's system: 16 peers under one placement policy."""
    return _scenario(
        seed,
        rm=RMConfig(placement_policy=policy),
        visited_policy=visited,
        population=PopulationConfig(
            n_peers=16, n_objects=8, replication=2, power_cv=power_cv
        ),
        workload=WorkloadConfig(rate=rate, deadline_slack=slack),
    ).run(duration=duration, drain=40.0)


def fairness(seed: int, duration: float, rate: float, policy: str):
    """E1 — load-balance fairness vs allocation policy."""
    summary = _one_domain(seed, duration, policy, rate, 4.0)
    return summary.mean_fairness, summary.goodput, summary.miss_rate


def missrate(seed: int, duration: float, rate: float, policy: str):
    """E2 — deadline performance vs offered load, per allocation policy."""
    summary = _one_domain(seed, duration, policy, rate, 2.0)
    return (summary.goodput, summary.miss_rate, summary.rejection_rate,
            summary.mean_response)


def scheduling(seed: int, duration: float, rate: float, scheduler: str):
    """E3 — local scheduling policy comparison (the paper's LLS choice)."""
    scenario = _scenario(
        seed,
        population=PopulationConfig(
            n_peers=12, n_objects=8, replication=2,
            scheduling_policy=scheduler,
        ),
        workload=WorkloadConfig(rate=rate, deadline_slack=1.8),
    )
    summary = scenario.run(duration=duration, drain=40.0)
    completed = missed = 0
    for peer in scenario.overlay.peers.values():
        completed += peer.processor.n_completed
        missed += peer.processor.n_missed
    return (summary.goodput, summary.miss_rate, missed / max(completed, 1),
            summary.mean_response)


#: Control-plane message kinds (excludes the data STREAM traffic).
CONTROL_KINDS = {
    protocol.LOAD_UPDATE, protocol.TASK_REQUEST, protocol.TASK_ACK,
    protocol.COMPOSE, protocol.START_STREAM, protocol.STEP_DONE,
    protocol.TASK_DONE, protocol.TASK_REDIRECT, protocol.GOSSIP_DIGEST,
    protocol.GOSSIP_SUMMARIES, protocol.RM_SYNC, protocol.JOIN_REQUEST,
}


def scalability(seed: int, duration: float, n_peers: int, mode: str):
    """E4 — scalability with the number of peers."""
    # Constant per-peer load; "central" is §1's one-RM strawman.
    scenario = _scenario(
        seed,
        population=PopulationConfig(
            n_peers=n_peers, n_objects=max(6, n_peers // 2), replication=3,
        ),
        workload=WorkloadConfig(rate=0.03 * n_peers),
        rm=RMConfig(max_peers=16 if mode == "domains" else 10_000_000),
    )
    summary = scenario.run(duration=duration, drain=40.0)
    stats = scenario.network.stats
    control = sum(stats.by_kind.get(k, 0) for k in CONTROL_KINDS)
    rm_ids = {rm.node_id for rm in scenario.overlay.rms()}
    max_rm_inbound = max((stats.by_dst.get(rid, 0) for rid in rm_ids),
                         default=0)
    return (scenario.overlay.n_domains, summary.goodput,
            summary.mean_response, control / n_peers / summary.duration,
            max_rm_inbound / summary.duration, summary.n_redirected)


def churn(seed: int, duration: float, lifetime: float, adapt: str):
    """E5 — dynamic environments: churn, with and without adaptation."""
    on = adapt == "yes"
    scenario = _scenario(
        seed,
        population=PopulationConfig(n_peers=20, n_objects=8, replication=3),
        workload=WorkloadConfig(rate=0.4),
        rm=RMConfig(enable_repair=on, enable_reassignment=on),
        churn=ChurnConfig(
            mean_lifetime=lifetime, mean_offtime=15.0, graceful_prob=0.5,
        ),
    )
    summary = scenario.run(duration=duration, drain=60.0)
    return (summary.goodput, summary.n_failed, summary.n_repairs,
            scenario.churn.departures if scenario.churn else 0)


def admission(seed: int, duration: float, rate: float, summaries: str):
    """E6 — admission control and inter-domain redirection."""
    scenario = _scenario(
        seed,
        population=PopulationConfig(n_peers=32, n_objects=10, replication=2),
        workload=WorkloadConfig(rate=rate, deadline_slack=2.0),
        rm=RMConfig(max_peers=10),
        enable_gossip=summaries == "bloom",
    )
    summary = scenario.run(duration=duration, drain=40.0)
    n = max(summary.n_submitted, 1)
    return (scenario.overlay.n_domains, summary.n_admitted / n,
            summary.n_redirected / n, summary.n_rejected / n,
            summary.goodput)


def update_period(seed: int, duration: float, period: float):
    """E7 — the Profiler update-period tradeoff."""
    scenario = _scenario(
        seed,
        population=PopulationConfig(
            n_peers=16, n_objects=8, replication=2, update_period=period,
        ),
        workload=WorkloadConfig(rate=1.0, deadline_slack=1.8),
    )
    staleness = []  # the RMs' mean view staleness, sampled every 5 s

    def stale_probe():
        for rm in scenario.overlay.rms():
            now = scenario.env.now
            vals = [
                rm.info.staleness(pid, now)
                for pid in rm.info.peers
                if rm.info.staleness(pid, now) != float("inf")
            ]
            if vals:
                staleness.append(sum(vals) / len(vals))

    scenario.env.every(5.0, stale_probe)
    summary = scenario.run(duration=duration, drain=40.0)
    updates = scenario.network.stats.by_kind.get(protocol.LOAD_UPDATE, 0)
    return (updates / 16 / summary.duration,
            sum(staleness) / len(staleness) if staleness else 0.0,
            summary.goodput, summary.miss_rate)


#: When E8 crashes the primary RM, in simulated seconds.
KILL_AT = 80.0


def failover(seed: int, duration: float, backup: str):
    """E8 — Resource Manager failover via the backup RM."""
    scenario = _scenario(
        seed,
        population=PopulationConfig(n_peers=14, n_objects=6, replication=3),
        workload=WorkloadConfig(rate=0.4),
        failover=FailoverConfig(sync_period=3.0, dead_after_periods=2.0),
        enable_backups=backup == "yes",
    )
    domain = next(iter(scenario.overlay.domains.values()))
    primary_id = domain.rm.node_id
    agent = domain.failover

    def killer():
        yield scenario.env.timeout(KILL_AT)
        scenario.overlay.fail_peer(primary_id)

    scenario.env.process(killer())
    summary = scenario.run(duration=duration, drain=60.0)
    rm_after = next(iter(scenario.overlay.domains.values())).rm
    took_over = agent is not None and agent.took_over
    return (1.0 if took_over else 0.0,
            agent.takeover_time - KILL_AT if took_over else -1.0,
            scenario.workload.n_submit_failures, summary.goodput,
            1.0 if rm_after.active and rm_after.alive else 0.0)


def gossip(seed: int, duration: float, n_domains: int, fanout: int):
    """E9 — gossip convergence of inter-domain summaries."""
    period = 2.0
    scenario = _scenario(
        seed,
        population=PopulationConfig(
            n_peers=n_domains * 4, n_objects=n_domains * 2, replication=2,
        ),
        workload=WorkloadConfig(rate=0.01),
        rm=RMConfig(max_peers=4),
        gossip=GossipConfig(period=period, fanout=fanout),
    )
    agents = [d.gossip for d in scenario.overlay.domains.values()
              if d.gossip is not None]
    converged_at = []  # when every RM first holds every domain's summary

    def probe():
        if all(len(a.summaries) == len(agents) for a in agents):
            converged_at.append(scenario.env.now)
            timer.cancel()

    timer = scenario.env.every(period / 2.0, probe)
    scenario.env.run(until=duration)
    if not converged_at:
        return 0.0, duration, float("inf")
    return 1.0, converged_at[-1], converged_at[-1] / period


def ablation(seed: int, duration: float, power_cv: float, variant):
    """E10 — ablations of the paper's two allocation design choices."""
    policy, visited = variant
    summary = _one_domain(seed, duration, policy, 0.8, 2.0, power_cv, visited)
    return summary.mean_fairness, summary.goodput, summary.miss_rate


def importance(seed: int, duration: float, rate: float, gate: str):
    """E11 (extension) — importance-aware admission under overload."""
    summary = _scenario(
        seed,
        population=PopulationConfig(n_peers=10, n_objects=6),
        workload=WorkloadConfig(
            rate=rate, deadline_slack=1.6, importance_range=(1, 9),
        ),
        rm=RMConfig(
            importance_admission=gate == "on", importance_admission_util=0.5,
        ),
    ).run(duration=duration, drain=40.0)
    return summary.goodput, summary.value_goodput, summary.rejection_rate


def loss(seed: int, duration: float, loss_rate: float):
    """E12 (extension) — resilience to message loss."""
    scenario = _scenario(
        seed,
        population=PopulationConfig(n_peers=14, n_objects=6, replication=2),
        workload=WorkloadConfig(rate=0.4),
        loss_rate=loss_rate,
    )
    summary = scenario.run(duration=duration, drain=60.0)
    return (summary.goodput, summary.n_failed,
            scenario.network.stats.dropped,
            scenario.workload.n_submit_failures)


def adaptive_updates(seed: int, duration: float, mode: str):
    """E13 (extension) — QoS-adaptive Profiler update frequency."""
    scenario = _scenario(
        seed,
        population=PopulationConfig(
            n_peers=16, n_objects=8, replication=2,
            update_period={"fast": 1.0, "slow": 4.0, "adaptive": 2.0}[mode],
        ),
        workload=WorkloadConfig(rate=1.2, deadline_slack=1.8),
    )
    if mode == "adaptive":
        for peer in scenario.overlay.peers.values():
            peer.profiler.adaptive = True
    summary = scenario.run(duration=duration, drain=40.0)
    updates = scenario.network.stats.by_kind.get(protocol.LOAD_UPDATE, 0)
    return updates / 16 / summary.duration, summary.goodput, summary.miss_rate


#: The paper policy plus every built-in baseline of the placement registry.
POLICIES = policy_names()
BASELINES = ["paper", "least_loaded", "random", "first"]
SCHEDULERS = ["LLS", "EDF", "FIFO", "SJF", "VALUE"]
#: E10's (placement policy, path search) pairs.
VARIANTS = [("paper", "paper"), ("first", "paper"), ("paper", "exhaustive")]

SWEEPS: Dict[str, Sweep] = {
    "e1": Sweep(
        "Fairness of the load distribution vs allocation policy",
        [("rate/s", [0.3, 0.8], [0.2, 0.5, 0.8, 1.2]),
         ("policy", POLICIES)],
        ["fairness", "goodput", "miss_rate"], fairness,
        "expected shape: fairness-max >= round_robin/least_loaded >> "
        "random/first on the fairness column, with goodput at least as "
        "good at high load",
        (150.0, 400.0),
    ),
    "e2": Sweep(
        "Deadline miss rate vs arrival rate per allocation policy",
        [("rate/s", [0.4, 1.2], [0.2, 0.5, 0.8, 1.2, 1.6]),
         ("policy", BASELINES)],
        ["goodput", "miss_rate", "reject_rate", "mean_resp_s"], missrate,
        "expected shape: all policies meet deadlines at light load; at "
        "high load the load-aware policies (paper, least_loaded) "
        "sustain higher goodput than random/first",
        (150.0, 400.0),
    ),
    "e3": Sweep(
        "Local scheduling policy vs deadline performance "
        "(fixed fairness-max allocation)",
        [("rate/s", [1.0], [0.6, 1.0, 1.4]),
         ("scheduler", SCHEDULERS)],
        ["goodput", "task_miss", "job_miss", "mean_resp_s"], scheduling,
        "expected shape: deadline-aware policies (LLS, EDF) miss fewer "
        "deadlines than FIFO under contention; LLS ~ EDF (the paper "
        "chose LLS)",
        (150.0, 400.0),
    ),
    "e4": Sweep(
        "Scalability with the number of peers "
        "(per-peer load held constant)",
        [("peers", [8, 32], [8, 16, 32, 64, 128]),
         ("mode", ["domains", "central"])],
        ["domains", "goodput", "mean_resp_s", "ctrl_msgs/peer/s",
         "max_rm_inbound/s", "redirects"], scalability,
        "expected shape: goodput roughly flat and ctrl msgs/peer/s "
        "bounded as peers grow (domains split; each RM only manages a "
        "bounded roster); the centralized mode concentrates every "
        "control message on one node",
        (120.0, 300.0), seeds=2,
    ),
    "e5": Sweep(
        "Churn: goodput with and without adaptive repair",
        [("mean_lifetime_s", [90.0], [300.0, 150.0, 90.0, 45.0]),
         ("adapt", ["yes", "no"])],
        ["goodput", "failed", "repairs", "departures"], churn,
        "expected shape: goodput(adapt=yes) > goodput(adapt=no), with "
        "the gap widening as lifetimes shrink (more interruptions to "
        "repair)",
        (200.0, 500.0),
    ),
    "e6": Sweep(
        "Admission control and redirection across domains",
        [("rate/s", [1.0], [0.5, 1.0, 2.0, 3.0]),
         ("summaries", ["bloom", "none"])],
        ["domains", "admit", "redirect", "reject", "goodput"], admission,
        "expected shape: redirection rises with load; Bloom summaries "
        "turn would-be rejections into successful redirects (higher "
        "admit/goodput than 'none' at equal load)",
        (150.0, 350.0),
    ),
    "e7": Sweep(
        "Profiler update period: overhead vs staleness tradeoff",
        [("period_s", [0.5, 8.0], [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])],
        ["updates/peer/s", "mean_staleness_s", "goodput", "miss_rate"],
        update_period,
        "expected shape: overhead ~ 1/period; staleness ~ period/2; "
        "goodput flat at short periods, degrading once staleness makes "
        "allocation decisions blind",
        (150.0, 400.0),
    ),
    "e8": Sweep(
        "RM failover: backup takeover after a primary crash "
        f"(crash at t={KILL_AT:.0f}s)",
        [("backup", ["yes", "no"])],
        ["took_over", "detect_s", "lost_queries", "goodput",
         "rm_alive_at_end"], failover,
        "expected shape: with a backup the domain recovers within a few "
        "sync periods and goodput stays high; without one, every query "
        "after the crash is lost",
        (200.0, 400.0),
    ),
    "e9": Sweep(
        "Gossip convergence of inter-domain summaries",
        [("domains", [4, 8], [2, 4, 8, 16]),
         ("fanout", [1, 2], [1, 2, 4])],
        ["converged", "time_s", "rounds"], gossip,
        "expected shape: rounds grow ~ log(domains); higher fanout "
        "converges in fewer rounds at proportionally more messages",
        (600.0, 600.0),
    ),
    "e10": Sweep(
        "Ablations: fairness-max selection and visited-set search",
        [("power_cv", [0.0, 0.8], [0.0, 0.4, 0.8, 1.2]),
         (("policy", "search"), VARIANTS)],
        ["fairness", "goodput", "miss_rate"], ablation,
        "expected shape: fairness-max holds its fairness advantage as "
        "heterogeneity grows; exhaustive search buys little over the "
        "paper BFS at full-system level (validating the cheap search)",
        (150.0, 350.0),
    ),
    "e11": Sweep(
        "Extension: importance-aware admission under overload",
        [("rate/s", [5.0], [1.5, 3.0, 5.0]),
         ("gate", ["off", "on"])],
        ["goodput", "value_goodput", "reject_rate"], importance,
        "expected shape: at deep saturation the gate trades raw goodput "
        "for (slightly) higher value goodput — important tasks keep the "
        "reserved slice; below saturation it is inert-to-neutral. The "
        "gain is modest: a reservation only helps when admission, not "
        "deadline slack, is the binding constraint.",
        (150.0, 400.0),
    ),
    "e12": Sweep(
        "Extension: graceful degradation under message loss",
        [("loss_rate", [0.0, 0.05], [0.0, 0.01, 0.02, 0.05, 0.10, 0.20])],
        ["goodput", "failed", "dropped_msgs", "lost_queries"], loss,
        "expected shape: goodput decays smoothly (no cliff, no hang) as "
        "loss grows; every lost stream is accounted as a failed task by "
        "the loss watchdog, never silently dropped",
        (150.0, 400.0),
    ),
    "e13": Sweep(
        "Extension: QoS-adaptive Profiler update frequency",
        [("mode", ["fast", "adaptive", "slow"])],
        ["updates/peer/s", "goodput", "miss_rate"], adaptive_updates,
        "expected shape: adaptive lands between fast and slow on "
        "message overhead while holding goodput within noise of fast — "
        "busy (decision-relevant) peers stay fresh, idle peers stop "
        "chattering",
        (150.0, 400.0),
    ),
}
