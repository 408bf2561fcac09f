"""Compose a validated :class:`ScenarioSpec` into a runnable system.

:func:`build_stressed_scenario` layers the DSL's stressor families onto
the stock :func:`~repro.workloads.scenario.build_scenario` pipeline:

* ``cost``      -> heavy-tailed object durations (PopulationConfig),
* ``arrivals``  -> a shaped non-homogeneous arrival process,
* ``adversaries`` -> inflated join claims + poisoned load reports,
* ``faults``    -> a scripted :class:`FaultScript` process,
* ``health``    -> sim-time HealthSampler + FlightRecorder (one
  :class:`~repro.telemetry.observation.Observation`), so the run emits
  regression-gateable series (deadline-miss ratio, imbalance, redirect
  rate) without any manual wiring.

Every random choice derives from named substreams of the base seed, so
two runs of the same spec produce identical event and message counts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.results.collector import RunSummary
from repro.scenarios.adversary import MisbehavingPeer, choose_liars
from repro.scenarios.arrivals import make_workload_cls
from repro.scenarios.faults import FaultScript
from repro.scenarios.spec import (
    METRICS_SCHEMA_VERSION,
    HealthSpec,
    ScenarioSpec,
)
from repro.sim.rng import RandomStreams
from repro.telemetry.observation import Observation
from repro.workloads.scenario import Scenario, build_scenario


@dataclass
class StressedScenario:
    """A built stress scenario plus its attached instrumentation."""

    spec: ScenarioSpec
    scenario: Scenario
    faults: Optional[FaultScript] = None
    liars: List[MisbehavingPeer] = field(default_factory=list)
    #: The run's observation session: ``obs.sampler`` / ``obs.recorder``
    #: / ``obs.session`` are what the spec's ``health`` section and the
    #: ``--trace/--sample/--profile`` flags attached (None when off).
    obs: Observation = field(default_factory=Observation)
    summary: Optional[RunSummary] = None

    # -- convenience passthroughs ------------------------------------------
    @property
    def env(self):
        return self.scenario.env

    @property
    def overlay(self):
        return self.scenario.overlay

    @property
    def network(self):
        return self.scenario.network

    # -- execution ---------------------------------------------------------
    def run(self) -> RunSummary:
        """Run the scripted duration + drain; returns the RunSummary."""
        try:
            with self.obs:
                self.summary = self.scenario.run(
                    self.spec.duration, drain=self.spec.drain
                )
        finally:
            # Teardown: un-wrap the lying report paths so peers reused
            # or rebuilt after the run report honestly again.
            for liar in self.liars:
                liar.detach()
        return self.summary

    # -- reporting ---------------------------------------------------------
    def health_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-series {last, max, mean, n} over the sampled rings."""
        if self.obs.sampler is None:
            return {}
        out: Dict[str, Dict[str, float]] = {}
        for ring in self.obs.sampler.all_series():
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(ring.labels.items())
            )
            key = f"{ring.name}{{{labels}}}" if labels else ring.name
            values = ring.values()
            if not values:
                continue
            out[key] = {
                "last": values[-1],
                "max": max(values),
                "mean": sum(values) / len(values),
                "n": len(values),
            }
        return out

    def metrics_document(self) -> Dict[str, Any]:
        """The schema-versioned per-scenario metrics JSON."""
        if self.summary is None:
            raise RuntimeError("run() the scenario before reporting")
        net = self.network.stats
        recorder, profile = self.obs.recorder, self.obs.session
        doc: Dict[str, Any] = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "scenario": self.spec.name,
            "seed": self.scenario.config.seed,
            "duration": self.spec.duration,
            "events": self.env.n_processed,
            "messages": net.sent,
            "dropped": net.dropped,
            "partition_drops": net.partition_drops,
            "summary": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self.summary.row().items()
            },
            "value_goodput": round(self.summary.value_goodput, 6),
            "faults": self.faults.counters() if self.faults else {},
            "adversary": {
                "liars": [m.peer.node_id for m in self.liars],
                "reports": sum(m.n_reports for m in self.liars),
                "lies": sum(m.n_lies for m in self.liars),
            } if self.liars else {},
            "health": {
                name: {k: round(v, 6) for k, v in stats.items()}
                for name, stats in self.health_summary().items()
            },
            "flight_dumps": list(recorder.dumps) if recorder else [],
        }
        reputation = self.reputation_document()
        if reputation:
            doc["reputation"] = reputation
        if profile is not None:
            doc["profile"] = profile.record(top_n=10)
        return doc

    def reputation_document(self) -> Dict[str, Any]:
        """Merged trust state across every defense-enabled RM.

        Empty when no RM ran with ``enable_defense`` — the metrics doc
        of an undefended run is unchanged.
        """
        quarantined: set = set()
        ever: set = set()
        trust: Dict[str, float] = {}
        signals: Dict[str, int] = {}
        total = 0
        seen = False
        now = self.env.now
        for rm in self.overlay.rms():
            engine = getattr(rm, "reputation", None)
            if engine is None:
                continue
            seen = True
            snap = engine.snapshot(now)
            quarantined.update(snap["quarantined"])
            ever.update(snap["ever_quarantined"])
            total += snap["quarantines_total"]
            for pid, st in snap["peers"].items():
                # A peer judged by several RMs keeps its worst score.
                score = st["score"]
                if pid not in trust or score < trust[pid]:
                    trust[pid] = score
            for sig, n in snap["signals"].items():
                signals[sig] = signals.get(sig, 0) + n
        if not seen:
            return {}
        return {
            "quarantined": sorted(quarantined),
            "ever_quarantined": sorted(ever),
            "quarantines_total": total,
            "trust": {pid: trust[pid] for pid in sorted(trust)},
            "signals": signals,
        }


def build_stressed_scenario(
    spec: ScenarioSpec,
    out_dir: str = ".",
    sample: Optional[float] = None,
    profile: bool = False,
    **flags: Any,
) -> StressedScenario:
    """Assemble the full stressed system described by *spec*.

    ``out_dir`` is where flight-recorder anomaly bundles land (when the
    ``health`` section arms the recorder).  *sample*, *profile* and
    *flags* (``trace``, ``budget``, ``folded``, ``log``, ...) are
    :class:`~repro.telemetry.observation.Observation` flags: the spec's
    ``health`` section and *sample* set the same sampler, the flag
    overriding the period.  With *profile*, a spec that disabled the
    flight recorder gets one anyway so SLO alerts have somewhere to
    dump.
    """
    # The spec's embedded base config is mutated below (cost knobs,
    # canonical-duration coupling inside build_scenario); deep-copy so
    # one loaded spec can be built repeatedly (bench warmup/repeat).
    cfg = copy.deepcopy(spec.base)

    if spec.cost is not None:
        pop = cfg.population
        pop.duration_dist = spec.cost.dist
        pop.duration_pareto_alpha = spec.cost.alpha
        pop.duration_sigma = spec.cost.sigma
        pop.duration_cap = spec.cost.cap

    workload_cls = None
    if spec.arrivals is not None and spec.arrivals.shape != "constant":
        workload_cls = make_workload_cls(spec.arrivals)

    # Adversaries: decide who lies *before* the population joins, from
    # the same seed-derived stream machinery the run itself uses
    # (RandomStreams is pure in the seed, so this pre-build instance
    # draws the same substream the built scenario would).
    liar_ids: List[str] = []
    true_power: Dict[str, float] = {}
    spec_transform = None
    adv = spec.adversaries
    if adv is not None:
        adv_rng = RandomStreams(cfg.seed).get("adversary")

        def spec_transform(specs):
            liar_ids.extend(
                choose_liars(
                    [s.peer_id for s in specs], adv.fraction, adv_rng
                )
            )
            chosen = set(liar_ids)
            for s in specs:
                if s.peer_id in chosen:
                    true_power[s.peer_id] = s.power
                    s.power *= adv.claim_factor
                    s.bandwidth *= adv.claim_factor
            return specs

    build_kwargs: Dict[str, Any] = {"spec_transform": spec_transform}
    if workload_cls is not None:
        build_kwargs["workload_cls"] = workload_cls
    scenario = build_scenario(cfg, **build_kwargs)

    liars: List[MisbehavingPeer] = []
    if adv is not None:
        for pid in liar_ids:
            node = scenario.overlay.peers.get(pid)
            if node is None:  # the join was rejected despite the claims
                continue
            liars.append(
                MisbehavingPeer(node, adv, true_power.get(pid, node.config.power))
            )

    faults: Optional[FaultScript] = None
    if spec.faults:
        faults = FaultScript(
            scenario.overlay,
            scenario.network,
            spec.faults,
            rng=scenario.streams.get("faults"),
        )

    health = spec.health or HealthSpec()
    if sample is None and spec.health is not None:
        sample = health.period
    obs = Observation.sim(
        scenario.env, scenario.overlay, scenario.network, per_peer=False,
        sample=sample, profile=profile,
        record_dir=out_dir if health.flight_recorder or profile else None,
        recorder_kwargs={
            "miss_burst": health.miss_burst,
            "miss_window": health.miss_window,
            "cooldown": health.cooldown,
        },
        meta={"seed": cfg.seed, "scenario": spec.name},
        **flags,
    )
    return StressedScenario(
        spec=spec, scenario=scenario, faults=faults, liars=liars, obs=obs,
    )


def run_spec(spec: ScenarioSpec, out_dir: str = ".") -> Dict[str, Any]:
    """Build, run and report one spec in a single call."""
    stressed = build_stressed_scenario(spec, out_dir=out_dir)
    stressed.run()
    return stressed.metrics_document()
