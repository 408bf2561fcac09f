"""E3 — local scheduling policy comparison (the paper's LLS choice).

§2: *"Our scheduling algorithm is based on the Least Laxity Scheduling
(LLS) algorithm [4] that exploits the deadlines of the applications and
the actual computation and execution times on the processors to
determine an efficient schedule."*

Fixed (paper) allocation; the per-peer Local Scheduler is swept across
LLS / EDF / FIFO / SJF / VALUE under tight deadlines and rising load.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, replicate, seeds_for
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)

SCHEDULERS = ["LLS", "EDF", "FIFO", "SJF", "VALUE"]


def run_once(
    seed: int, scheduler: str, rate: float, duration: float
) -> dict:
    cfg = ScenarioConfig(
        seed=seed,
        population=PopulationConfig(
            n_peers=12, n_objects=8, replication=2,
            scheduling_policy=scheduler,
        ),
        workload=WorkloadConfig(rate=rate, deadline_slack=1.8),
    )
    scenario = build_scenario(cfg)
    summary = scenario.run(duration=duration, drain=40.0)
    # Per-job deadline stats straight from the processors' counters.
    completed = missed = 0
    for peer in scenario.overlay.peers.values():
        completed += peer.processor.n_completed
        missed += peer.processor.n_missed
    return {
        "goodput": summary.goodput,
        "task_miss": summary.miss_rate,
        "job_miss": missed / max(completed, 1),
        "mean_resp": summary.mean_response,
    }


def run(quick: bool = False) -> ExperimentResult:
    duration = 150.0 if quick else 400.0
    rates = [1.0] if quick else [0.6, 1.0, 1.4]
    seeds = seeds_for(quick)
    result = ExperimentResult(
        experiment_id="e3",
        title="Local scheduling policy vs deadline performance "
              "(fixed fairness-max allocation)",
        headers=["rate/s", "scheduler", "goodput", "task_miss", "job_miss",
                 "mean_resp_s"],
    )
    for rate in rates:
        for scheduler in SCHEDULERS:
            stats = replicate(
                lambda seed: run_once(seed, scheduler, rate, duration),
                seeds,
            )
            result.add_row(
                rate, scheduler,
                stats["goodput"][0], stats["task_miss"][0],
                stats["job_miss"][0], stats["mean_resp"][0],
            )
    result.notes.append(
        "expected shape: deadline-aware policies (LLS, EDF) miss fewer "
        "deadlines than FIFO under contention; LLS ~ EDF (the paper "
        "chose LLS)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
