#!/usr/bin/env python
"""A transcoding farm under load: many users, heterogeneous peers.

The paper's motivating workload (§1): media streaming and transcoding
for heterogeneous receivers — "transcoded to different formats or
presentations (e.g., lower resolution) to bring the data to different
devices".  This example builds a 24-peer domain-structured overlay with
a full format catalog, drives it with Poisson user queries for an
on-demand library of movies, and reports what the resource-management
layer did: allocations, fairness over time, deadline performance, and
the message overhead it cost.

Run:  python examples/media_streaming_farm.py
"""

from repro.common.util import fmt_table
from repro.core.manager import RMConfig
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


def main() -> None:
    config = ScenarioConfig(
        seed=2005,
        population=PopulationConfig(
            n_peers=24,
            n_objects=12,          # the movie library
            replication=2,
            power_cv=0.6,          # strongly heterogeneous CPUs
            services_per_peer=6,
        ),
        workload=WorkloadConfig(rate=0.8, deadline_slack=3.0),
        # The paper's fairness-max placement; max_peers=12 forces a
        # two-domain overlay.
        rm=RMConfig(max_peers=12, placement_policy="paper"),
    )
    scenario = build_scenario(config)
    print(
        f"overlay: {scenario.overlay.n_peers} peers in "
        f"{scenario.overlay.n_domains} domains; "
        f"{len(scenario.objects)} movies; "
        f"{sum(len(s.services) for s in scenario.overlay.specs.values())} "
        "transcoder instances"
    )

    summary = scenario.run(duration=600.0, drain=60.0)

    print("\n-- streaming service report ------------------------------")
    rows = [
        ["user queries", summary.n_submitted],
        ["admitted", summary.n_admitted],
        ["redirected across domains", summary.n_redirected],
        ["met deadline", summary.n_met],
        ["missed deadline", summary.n_missed],
        ["rejected (admission control)", summary.n_rejected],
        ["lost", summary.n_failed],
    ]
    print(fmt_table(["event", "count"], rows))
    print(f"\ngoodput: {summary.goodput:.1%}")
    print(f"mean / p95 response: {summary.mean_response:.2f}s "
          f"/ {summary.p95_response:.2f}s")
    print(f"mean fairness index of measured loads: "
          f"{summary.mean_fairness:.3f}")
    print(f"control+data messages: {summary.messages} "
          f"({summary.bytes_sent / 1e9:.2f} GB on the wire)")

    print("\n-- per-domain view ------------------------------------------")
    rows = []
    for domain in scenario.overlay.domains.values():
        rm = domain.rm
        rows.append([
            domain.domain_id,
            rm.node_id,
            rm.info.n_peers,
            rm.stats["admitted"],
            rm.stats["redirected_out"],
            f"{rm.domain_fairness():.3f}",
        ])
    print(fmt_table(
        ["domain", "rm", "peers", "admitted", "redirected", "fairness"],
        rows,
    ))


if __name__ == "__main__":
    main()
