"""E7 — the Profiler update-period tradeoff.

Reproduces §4.4: *"Care must be taken when selecting the period for the
load updates propagation. Too frequent updates would cause high network
traffic and processing load, while too infrequent updates may not
capture the application requirements adequately."*

The update period is swept over two orders of magnitude; reported:
control-message overhead (load updates per peer per second), the mean
staleness of the RM's view at allocation time, and the resulting
goodput.  The interior optimum is the paper's point.
"""

from __future__ import annotations

from repro.core import protocol
from repro.experiments.base import ExperimentResult, replicate, seeds_for
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


def run_once(seed: int, period: float, duration: float) -> dict:
    cfg = ScenarioConfig(
        seed=seed,
        population=PopulationConfig(
            n_peers=16, n_objects=8, replication=2,
            update_period=period,
        ),
        workload=WorkloadConfig(rate=1.0, deadline_slack=1.8),
    )
    scenario = build_scenario(cfg)

    # Sample RM view staleness at a fixed cadence during the run.
    staleness_samples = []

    def stale_probe():
        for rm in scenario.overlay.rms():
            now = scenario.env.now
            vals = [
                rm.info.staleness(pid, now)
                for pid in rm.info.peers
                if rm.info.staleness(pid, now) != float("inf")
            ]
            if vals:
                staleness_samples.append(sum(vals) / len(vals))

    scenario.env.every(5.0, stale_probe)
    summary = scenario.run(duration=duration, drain=40.0)
    updates = scenario.network.stats.by_kind.get(protocol.LOAD_UPDATE, 0)
    n_peers = cfg.population.n_peers
    return {
        "goodput": summary.goodput,
        "miss_rate": summary.miss_rate,
        "updates_per_peer_s": updates / n_peers / summary.duration,
        "mean_staleness": (
            sum(staleness_samples) / len(staleness_samples)
            if staleness_samples
            else 0.0
        ),
    }


def run(quick: bool = False) -> ExperimentResult:
    duration = 150.0 if quick else 400.0
    periods = [0.5, 8.0] if quick else [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    seeds = seeds_for(quick)
    result = ExperimentResult(
        experiment_id="e7",
        title="Profiler update period: overhead vs staleness tradeoff",
        headers=["period_s", "updates/peer/s", "mean_staleness_s",
                 "goodput", "miss_rate"],
    )
    for period in periods:
        stats = replicate(
            lambda seed: run_once(seed, period, duration), seeds
        )
        result.add_row(
            period,
            stats["updates_per_peer_s"][0],
            stats["mean_staleness"][0],
            stats["goodput"][0],
            stats["miss_rate"][0],
        )
    result.notes.append(
        "expected shape: overhead ~ 1/period; staleness ~ period/2; "
        "goodput flat at short periods, degrading once staleness makes "
        "allocation decisions blind"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
