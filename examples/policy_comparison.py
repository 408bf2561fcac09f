#!/usr/bin/env python
"""Compare allocation policies head-to-head on an identical workload.

Uses the named-substream RNG design: every policy sees byte-identical
arrivals, peers and latencies, so the differences in the table are the
policy, not the noise.  This is experiment E1/E2 in miniature, as
library-user code.

Run:  python examples/policy_comparison.py
"""

from repro.common.util import fmt_table
from repro.core.manager import RMConfig
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)

POLICIES = ["paper", "least_loaded", "round_robin", "random", "first"]


def run_policy(policy: str) -> dict:
    config = ScenarioConfig(
        seed=99,                      # identical across policies
        rm=RMConfig(placement_policy=policy),
        population=PopulationConfig(
            n_peers=16, n_objects=8, replication=2, power_cv=0.6
        ),
        workload=WorkloadConfig(rate=1.0, deadline_slack=2.5),
    )
    scenario = build_scenario(config)
    summary = scenario.run(duration=400.0, drain=40.0)
    return {
        "policy": policy,
        "fairness": summary.mean_fairness,
        "goodput": summary.goodput,
        "miss_rate": summary.miss_rate,
        "mean_resp": summary.mean_response,
        "p95_resp": summary.p95_response,
    }


def main() -> None:
    rows = []
    for policy in POLICIES:
        r = run_policy(policy)
        rows.append([
            r["policy"], f"{r['fairness']:.3f}", f"{r['goodput']:.3f}",
            f"{r['miss_rate']:.3f}", f"{r['mean_resp']:.2f}",
            f"{r['p95_resp']:.2f}",
        ])
        print(f"ran {policy}")
    print()
    print(fmt_table(
        ["policy", "fairness", "goodput", "miss_rate", "mean_resp_s",
         "p95_resp_s"],
        rows,
    ))
    print("\nfairness = time-weighted mean Jain index of measured peer "
          "loads (eq. 1 of the paper); the paper's policy is 'paper'")


if __name__ == "__main__":
    main()
