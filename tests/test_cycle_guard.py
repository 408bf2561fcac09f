"""A steady domain leaves no cyclic garbage.

Every LLS slice races its quantum against a wake-up (``timeout | wake``)
and every job carries a done event; either one closing a reference
cycle leaves its objects to the cyclic collector, once per slice or per
job.  With the collector off, a minute of a busy 64-peer domain must
leave nothing for it to find.
"""

from __future__ import annotations

import gc

from repro.core.manager import RMConfig
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


def test_steady_dense_domain_leaves_no_cyclic_garbage():
    scenario = build_scenario(ScenarioConfig(
        seed=7,
        population=PopulationConfig(n_peers=64, n_objects=32, replication=3),
        workload=WorkloadConfig(rate=0.08 * 64),
        rm=RMConfig(max_peers=64),
    ))
    env = scenario.env
    env.run(until=5.0)
    gc.collect()
    gc.disable()
    try:
        env.run(until=65.0)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert env.n_processed > 40_000  # the window did real work
    assert garbage == 0
