"""A steady domain leaves no cyclic garbage, and neither does a peer
that departs.

Every LLS slice races its quantum against a wake-up (``timeout | wake``)
and every job carries a done event; either one closing a reference
cycle leaves its objects to the cyclic collector, once per slice or per
job.  With the collector off, a minute of a busy 64-peer domain must
leave nothing for it to find.  Under churn, a departed peer's handlers,
timers, profiler and connection manager must let go of it, so that
reference counting frees it.
"""

from __future__ import annotations

import gc

from repro.core.manager import ResourceManager, RMConfig
from repro.overlay import ChurnConfig
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


def test_departed_peers_leave_no_cyclic_garbage():
    """What is left is held by crashed resource managers alone.  A
    failed-over RM's control components (admission, placement, registry,
    repair) keep it as ``.rm``, and the processes it had in flight still
    run through them after the crash, so that one cycle stays."""
    n = 120
    scenario = build_scenario(ScenarioConfig(
        seed=7,
        population=PopulationConfig(n_peers=n, n_objects=n // 2,
                                    replication=3),
        workload=WorkloadConfig(rate=0.02 * n),
        rm=RMConfig(max_peers=16),
        churn=ChurnConfig(mean_lifetime=40.0, mean_offtime=10.0),
    ))
    env = scenario.env
    env.run(until=25.0)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        env.run(until=85.0)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert scenario.churn.departures > 100  # the window did churn
    rms = [o for o in garbage if type(o) is ResourceManager]
    assert all(not rm.alive for rm in rms)
    # Everything else is reachable from those RMs.
    ids = {id(o) for o in garbage}
    seen = {id(rm) for rm in rms}
    todo = list(rms)
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) in ids and id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
    left = sorted({type(o).__name__ for o in garbage if id(o) not in seen})
    assert left == []
    assert len(rms) <= 10
