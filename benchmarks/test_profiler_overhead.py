"""Profiler + sampler overhead on the scalability_1000 golden rung.

Two invariants from the self-observation work:

* **Disabled is free and exact** — with no profiler, sampler, or
  telemetry attached, the scalability_1000 trajectory is pinned at
  190,047 kernel events and 25,671 messages.  The profile hook lives in
  a separate kernel loop variant, so the disabled path must not drift
  by even one event.  (The count was 190,173 while periodic loops were
  processes: the 42 failover loops stopped as the overlay forms each
  cost an interrupt, an exit and an orphaned first tick that a
  cancelled timer does not — same messages, same decisions.)
* **Enabled is cheap** — with ``--profile --sample`` at the default 2%
  budget, events/sec on the same rung degrades by less than 5% versus
  the profiler disabled (same ``--sample`` run, no profiler attached:
  the sampler's own cost predates the profiler and is bounded
  separately in ``test_telemetry_overhead.py``).

The overhead comparison interleaves the two arms (off, on, off, on,
...) and scores the *median of per-pair ratios*: slow process drift
(allocator growth, background load) moves both members of a pair, so
the pairwise ratio isolates the profiler's marginal cost where a
best-of comparison would just race the drift.
"""

import statistics
import time

from repro.benchmarking.scenarios import select
from repro.profiling import profile_wall

#: The pinned scalability_1000 trajectory (full params, seed 7).
GOLDEN_EVENTS = 190_047
GOLDEN_MESSAGES = 25_671

#: Max tolerated events/sec drop with --profile --sample attached.
MAX_DEGRADATION = 0.05

#: Interleaved off/on pairs scored by their median ratio.
PAIRS = 3


def _spec():
    return [s for s in select() if s.name == "scalability_1000"][0]


def test_disabled_golden_trajectory():
    out = _spec().build()()
    assert out["events"] == GOLDEN_EVENTS
    assert out["metrics"]["messages"] == GOLDEN_MESSAGES


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out["events"] / (time.perf_counter() - t0)


def test_profile_sample_overhead_within_budget():
    sampled_fn = _spec().build(sample=True)

    ratios = []
    last_record = None
    # Warm once (imports, allocator) before recording.
    sampled_fn()
    for _ in range(PAIRS):
        off = _timed(sampled_fn)
        sess = profile_wall(budget=0.02)
        try:
            on = _timed(sampled_fn)
        finally:
            sess.stop()
        last_record = sess.record(top_n=5)
        ratios.append(on / off)

    degradation = 1.0 - statistics.median(ratios)
    assert degradation < MAX_DEGRADATION, (
        f"--profile cost {degradation:.1%} events/sec on the sampled "
        f"rung (pair ratios: {[round(r, 3) for r in ratios]})"
    )

    # The profiler actually observed the run, and the budgeter either
    # kept measured overhead near the target or visibly reacted to it.
    assert last_record is not None and last_record["samples"] > 0
    budget = last_record["budget"]
    assert (
        budget["overhead_cumulative"] <= 2 * budget["target"]
        or budget["backoffs"] > 0
    )
