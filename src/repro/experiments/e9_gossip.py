"""E9 — gossip convergence of inter-domain summaries.

Reproduces §4.4 (inter-domain propagation): *"a gossiping protocol ...
should suffice for lazily propagating changes among the Resource
Managers."*  Domains are created empty of workload; the measured
quantity is how long (in seconds and in gossip rounds) it takes until
every RM holds every domain's summary, as the number of domains and the
gossip fanout grow.
"""

from __future__ import annotations

from repro.core.manager import RMConfig
from repro.experiments.base import ExperimentResult, replicate, seeds_for
from repro.gossip.agent import GossipConfig
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


def run_once(
    seed: int, n_domains: int, fanout: int, period: float = 2.0
) -> dict:
    peers_per_domain = 4
    cfg = ScenarioConfig(
        seed=seed,
        population=PopulationConfig(
            n_peers=n_domains * peers_per_domain,
            n_objects=n_domains * 2,
            replication=2,
        ),
        # Tiny trickle workload: E9 is about the control plane.
        workload=WorkloadConfig(rate=0.01),
        rm=RMConfig(max_peers=peers_per_domain),
        gossip=GossipConfig(period=period, fanout=fanout),
    )
    scenario = build_scenario(cfg)
    if scenario.overlay.n_domains < n_domains:
        # The population is sized to force exactly n_domains splits.
        pass
    agents = [
        d.gossip for d in scenario.overlay.domains.values()
        if d.gossip is not None
    ]
    total = len(agents)
    converged_at = {"t": None}

    def probe():
        if all(len(a.summaries) == total for a in agents):
            converged_at["t"] = scenario.env.now
            timer.cancel()

    timer = scenario.env.every(period / 2.0, probe)
    scenario.env.run(until=600.0)
    t = converged_at["t"]
    return {
        "domains": total,
        "converged": 1.0 if t is not None else 0.0,
        "time_s": t if t is not None else 600.0,
        "rounds": (t / period) if t is not None else float("inf"),
    }


def run(quick: bool = False) -> ExperimentResult:
    sizes = [4, 8] if quick else [2, 4, 8, 16]
    fanouts = [1, 2] if quick else [1, 2, 4]
    seeds = seeds_for(quick)
    result = ExperimentResult(
        experiment_id="e9",
        title="Gossip convergence of inter-domain summaries",
        headers=["domains", "fanout", "converged", "time_s", "rounds"],
    )
    for n_domains in sizes:
        for fanout in fanouts:
            stats = replicate(
                lambda seed: run_once(seed, n_domains, fanout), seeds
            )
            result.add_row(
                n_domains, fanout,
                stats["converged"][0], stats["time_s"][0],
                stats["rounds"][0],
            )
    result.notes.append(
        "expected shape: rounds grow ~ log(domains); higher fanout "
        "converges in fewer rounds at proportionally more messages"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
