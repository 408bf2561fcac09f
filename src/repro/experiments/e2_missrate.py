"""E2 — deadline performance vs offered load, per allocation policy.

Reproduces the claim of §3.3: *"Our goal is to maximize the number of
applications that meet their deadlines."*  Sweeps the Poisson arrival
rate from light to saturating load and reports goodput (tasks meeting
their deadline / submitted) and the miss rate per allocation policy.
Deadlines are tight (low slack) so queueing differences show.
"""

from __future__ import annotations

from repro.core.manager import RMConfig
from repro.experiments.base import ExperimentResult, replicate, seeds_for
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)

POLICIES = ["paper", "least_loaded", "random", "first"]


def run_once(
    seed: int, policy: str, rate: float, duration: float
) -> dict:
    cfg = ScenarioConfig(
        seed=seed,
        rm=RMConfig(placement_policy=policy),
        population=PopulationConfig(
            n_peers=16, n_objects=8, replication=2, power_cv=0.5
        ),
        workload=WorkloadConfig(rate=rate, deadline_slack=2.0),
    )
    scenario = build_scenario(cfg)
    summary = scenario.run(duration=duration, drain=40.0)
    return {
        "goodput": summary.goodput,
        "miss_rate": summary.miss_rate,
        "rejected": summary.rejection_rate,
        "mean_resp": summary.mean_response,
    }


def run(quick: bool = False) -> ExperimentResult:
    duration = 150.0 if quick else 400.0
    rates = [0.4, 1.2] if quick else [0.2, 0.5, 0.8, 1.2, 1.6]
    seeds = seeds_for(quick)
    result = ExperimentResult(
        experiment_id="e2",
        title="Deadline miss rate vs arrival rate per allocation policy",
        headers=["rate/s", "policy", "goodput", "miss_rate", "reject_rate",
                 "mean_resp_s"],
    )
    for rate in rates:
        for policy in POLICIES:
            stats = replicate(
                lambda seed: run_once(seed, policy, rate, duration), seeds
            )
            result.add_row(
                rate, policy,
                stats["goodput"][0], stats["miss_rate"][0],
                stats["rejected"][0], stats["mean_resp"][0],
            )
    result.notes.append(
        "expected shape: all policies meet deadlines at light load; at "
        "high load the load-aware policies (paper, least_loaded) "
        "sustain higher goodput than random/first"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
