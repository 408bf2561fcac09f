"""Profiler overhead on the sampled ``scalability_1000`` run.

With the wall profiler at the default 2% budget, events/sec on the
sampled 1,000-peer scalability config (seed 7, 30 simulated seconds; its
unsampled trajectory is pinned in ``tests/test_trajectory_digest.py``)
degrades by less than 5% versus the profiler disabled.  Both arms carry
the sim-time health sampler, so only the profiler differs: the
sampler's own cost predates the profiler and is bounded separately in
``test_telemetry_overhead.py``.

The comparison interleaves the two arms (off, on, off, on, ...) and
scores the *median of per-pair ratios*: slow process drift (allocator
growth, background load) moves both members of a pair, so the pairwise
ratio isolates the profiler's marginal cost where a best-of comparison
would just race the drift.
"""

import statistics
import time

from repro.core.manager import RMConfig
from repro.profiling import profile_wall
from repro.telemetry.observation import Observation
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)

#: Max tolerated events/sec drop with the profiler attached.
MAX_DEGRADATION = 0.05

#: Interleaved off/on pairs scored by their median ratio.
PAIRS = 3


def _sampled_run():
    """Events/sec over building the config and its sampled 30 s run."""
    t0 = time.perf_counter()
    scenario = build_scenario(ScenarioConfig(
        seed=7,
        population=PopulationConfig(
            n_peers=1000, n_objects=500, replication=3,
        ),
        workload=WorkloadConfig(rate=30.0),
        rm=RMConfig(max_peers=16),
    ))
    env = scenario.env
    with Observation.sim(
        env, scenario.overlay, scenario.network, per_peer=False, sample=1.0,
    ):
        env.run(until=30.0)
    return env.n_processed / (time.perf_counter() - t0)


def test_profile_sample_overhead_within_budget():
    ratios = []
    last_record = None
    # Warm once (imports, allocator) before recording.
    _sampled_run()
    for _ in range(PAIRS):
        off = _sampled_run()
        sess = profile_wall(budget=0.02)
        try:
            on = _sampled_run()
        finally:
            sess.stop()
        last_record = sess.record(top_n=5)
        ratios.append(on / off)

    degradation = 1.0 - statistics.median(ratios)
    assert degradation < MAX_DEGRADATION, (
        f"--profile cost {degradation:.1%} events/sec on the sampled "
        f"run (pair ratios: {[round(r, 3) for r in ratios]})"
    )

    # The profiler actually observed the run, and its measured cost
    # (self-time plus the modelled GIL tax) met the budget.
    assert last_record is not None and last_record["samples"] > 0
    budget = last_record["budget"]
    assert budget["met"], budget
