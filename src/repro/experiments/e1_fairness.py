"""E1 — load-balance fairness vs allocation policy.

Reproduces the claim of §4.2/§6: *"We propose a load balancing
algorithm based on the notion of fairness. The algorithm ensures that
the load among the peers is fairly balanced."*

One heterogeneous 16-peer domain; Poisson arrivals swept across offered
load; the paper's fairness-max selection compared against the §5
baselines (random, round-robin, greedy least-loaded, first-feasible)
that share identical search + feasibility machinery.  Reported metric:
time-weighted mean Jain fairness of the *measured* (profiler) load
distribution, plus goodput.
"""

from __future__ import annotations

from repro.core.control.placement import policy_names
from repro.core.manager import RMConfig
from repro.experiments.base import ExperimentResult, replicate, seeds_for
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)

# The paper policy plus every built-in baseline from the placement
# registry.
POLICIES = policy_names()


def run_once(
    seed: int, policy: str, rate: float, duration: float, n_peers: int = 16
) -> dict:
    cfg = ScenarioConfig(
        seed=seed,
        rm=RMConfig(placement_policy=policy),
        population=PopulationConfig(
            n_peers=n_peers, n_objects=8, replication=2, power_cv=0.5
        ),
        workload=WorkloadConfig(rate=rate),
    )
    scenario = build_scenario(cfg)
    summary = scenario.run(duration=duration, drain=40.0)
    return {
        "fairness": summary.mean_fairness,
        "goodput": summary.goodput,
        "miss_rate": summary.miss_rate,
    }


def run(quick: bool = False) -> ExperimentResult:
    duration = 150.0 if quick else 400.0
    rates = [0.3, 0.8] if quick else [0.2, 0.5, 0.8, 1.2]
    seeds = seeds_for(quick)
    result = ExperimentResult(
        experiment_id="e1",
        title="Fairness of the load distribution vs allocation policy",
        headers=["rate/s", "policy", "fairness", "goodput", "miss_rate"],
    )
    for rate in rates:
        for policy in POLICIES:
            stats = replicate(
                lambda seed: run_once(seed, policy, rate, duration), seeds
            )
            result.add_row(
                rate, policy,
                stats["fairness"][0], stats["goodput"][0],
                stats["miss_rate"][0],
            )
    result.notes.append(
        "expected shape: fairness-max >= round_robin/least_loaded >> "
        "random/first on the fairness column, with goodput at least as "
        "good at high load"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
