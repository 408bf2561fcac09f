"""The one-call scenario builder used by experiments and examples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.baselines.selectors import make_allocator
from repro.core.estimate import CompletionTimeEstimator
from repro.core.manager import RMConfig
from repro.gossip.agent import GossipConfig
from repro.media.objects import MediaObject
from repro.results.collector import MetricsCollector, RunSummary
from repro.net.latency import DomainAwareLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.overlay.churn import ChurnConfig, ChurnProcess
from repro.overlay.failover import FailoverConfig
from repro.overlay.network import OverlayNetwork
from repro.overlay.qualification import QualificationPolicy
from repro.overlay.network import PeerSpec
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams, set_ambient_streams
from repro.workloads.arrivals import TaskArrivalProcess, WorkloadConfig
from repro.workloads.catalog import MediaCatalog
from repro.workloads.population import (
    PopulationConfig,
    generate_specs,
    make_objects,
)


@dataclass
class ScenarioConfig:
    """Everything that defines one simulation run."""

    seed: int = 0
    #: Allocation policy: paper/fairness | first | random | least_loaded |
    #: round_robin (see :mod:`repro.core.control.placement`).  The
    #: default defers to ``rm.placement_policy`` when that names a
    #: non-default policy, so either config section can pick the policy.
    allocation_policy: str = "fairness"
    #: Path search variant: "paper" (Fig-3 BFS) or "exhaustive".
    visited_policy: str = "paper"
    population: PopulationConfig = field(default_factory=PopulationConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    rm: RMConfig = field(default_factory=RMConfig)
    estimator: CompletionTimeEstimator = field(
        default_factory=CompletionTimeEstimator
    )
    gossip: GossipConfig = field(default_factory=GossipConfig)
    failover: FailoverConfig = field(default_factory=FailoverConfig)
    qualification: QualificationPolicy = field(
        default_factory=QualificationPolicy
    )
    churn: Optional[ChurnConfig] = None
    enable_backups: bool = True
    enable_gossip: bool = True
    #: Intra/inter-domain one-way base latencies (seconds) and jitter.
    intra_latency: float = 0.005
    inter_latency: float = 0.050
    latency_jitter: float = 0.3
    #: Link bandwidth, bytes/second.
    bandwidth: float = 1.25e6
    #: Per-message loss probability on the fabric; the loss pattern is
    #: drawn from the run seed's "loss" stream, so two seeds produce
    #: different drop patterns and one seed reproduces exactly.
    loss_rate: float = 0.0
    #: Fairness/utilization sampling period for metrics.
    metrics_period: float = 1.0


@dataclass
class Scenario:
    """A fully built simulated system, ready to run."""

    config: ScenarioConfig
    env: Environment
    network: Network
    overlay: OverlayNetwork
    catalog: MediaCatalog
    objects: List[MediaObject]
    metrics: MetricsCollector
    workload: TaskArrivalProcess
    streams: RandomStreams
    churn: Optional[ChurnProcess] = None

    def run(self, duration: float, drain: float = 30.0) -> RunSummary:
        """Run for *duration*, stop new arrivals, drain, summarize.

        ``drain`` gives in-flight tasks time to finish so the outcome
        counters reflect completed work rather than truncation.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.env.run(until=self.env.now + duration)
        self.workload.stop()
        if drain > 0:
            self.env.run(until=self.env.now + drain)
        return self.summary()

    def summary(self) -> RunSummary:
        return self.metrics.summary(net_stats=self.network.stats)


def build_scenario(
    config: Optional[ScenarioConfig] = None,
    *,
    workload_cls: type = TaskArrivalProcess,
    spec_transform: Optional[
        Callable[[List[PeerSpec]], List[PeerSpec]]
    ] = None,
) -> Scenario:
    """Assemble a complete system from a :class:`ScenarioConfig`.

    ``workload_cls`` swaps the arrival process implementation (the
    scenario DSL substitutes shaped arrivals); ``spec_transform`` maps
    the generated peer specs before any peer joins (the DSL uses it to
    inflate the claims of misbehaving peers so §4.1 qualification
    ingests the lie).  Both default to the historic behavior.
    """
    cfg = config or ScenarioConfig()
    # Repeated in-process runs must produce identical message ids; the
    # id counter is module-global, so rewind it per scenario.
    Message.reset_ids()
    streams = RandomStreams(cfg.seed)
    # Components constructed later without an explicit rng (test shims,
    # ad-hoc wiring) derive their fallback streams from this run's seed
    # instead of OS entropy.
    set_ambient_streams(streams)
    env = Environment()

    # The latency model reads the overlay's (mutable) domain map; the
    # dict identity is stable, so wiring it before peers join is safe.
    network = Network(
        env,
        latency=None,  # replaced just below, after overlay exists
        bandwidth=cfg.bandwidth,
        loss_rate=cfg.loss_rate,
        loss_rng=streams.get("loss"),
    )
    metrics = MetricsCollector(env)
    # Keep the workload's scheduling/update settings consistent with the
    # RM's expectations.
    cfg.rm.canonical_duration = cfg.population.object_duration
    cfg.rm.expected_update_period = cfg.population.update_period

    # Either config section may name the policy: `allocation_policy`
    # (historic) wins when set to a non-default value, otherwise a
    # non-default `rm.placement_policy` is honored.
    policy = cfg.allocation_policy
    if policy in ("fairness", "paper") and cfg.rm.placement_policy not in (
        "paper", "fairness"
    ):
        policy = cfg.rm.placement_policy

    def allocator_factory():
        return make_allocator(
            policy,
            rng=streams.get("allocator"),
            visited_policy=cfg.visited_policy,
            estimator=cfg.estimator,
        )

    overlay = OverlayNetwork(
        env,
        network,
        qualification=cfg.qualification,
        rm_config=cfg.rm,
        allocator_factory=allocator_factory,
        gossip_config=cfg.gossip,
        failover_config=cfg.failover,
        enable_backups=cfg.enable_backups,
        enable_gossip=cfg.enable_gossip,
        on_task_event=metrics.on_task_event,
        streams=streams,
    )
    network.latency = DomainAwareLatency(
        overlay.domain_of.get,
        intra=cfg.intra_latency,
        inter=cfg.inter_latency,
        jitter=cfg.latency_jitter,
        rng=streams.get("latency"),
    )

    catalog = MediaCatalog(canonical_duration=cfg.population.object_duration)
    pop_rng = streams.get("population")
    objects = make_objects(catalog, cfg.population, pop_rng)
    specs = generate_specs(catalog, cfg.population, pop_rng, objects=objects)
    if spec_transform is not None:
        specs = spec_transform(specs)
    # Bootstrap with a qualified leader: rotate the population so the
    # first joiner can create the initial domain — otherwise unqualified
    # early arrivals would be rejected into the void (a real overlay
    # already exists when ordinary peers show up).
    first_ok = next(
        (
            i for i, s in enumerate(specs)
            if cfg.qualification.qualifies(s.power, s.bandwidth, s.uptime)
        ),
        0,
    )
    for spec in specs[first_ok:] + specs[:first_ok]:
        overlay.join(spec)

    churn: Optional[ChurnProcess] = None
    if cfg.churn is not None:
        churn = ChurnProcess(
            overlay, cfg.churn, rng=streams.get("churn")
        )
        churn.watch_all()

    workload = workload_cls(
        overlay, catalog, objects,
        config=cfg.workload,
        rng=streams.get("arrivals"),
    )
    metrics.start_sampling(overlay, period=cfg.metrics_period)

    return Scenario(
        config=cfg,
        env=env,
        network=network,
        overlay=overlay,
        catalog=catalog,
        objects=objects,
        metrics=metrics,
        workload=workload,
        streams=streams,
        churn=churn,
    )
