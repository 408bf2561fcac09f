"""Self-observation: in-process profiling, its measured cost, SLOs.

The telemetry stack (:mod:`repro.telemetry`) observes the *protocol*;
this package observes the *system running it*:

* :mod:`repro.profiling.stacks` — bounded folded-stack aggregation and
  flamegraph export,
* :mod:`repro.profiling.sampler` — the two sampling drivers
  (timer-thread ``sys._current_frames`` for the live runtime,
  event-count dispatch sampling for the simulator),
* :mod:`repro.profiling.slo` — SLO definitions + multi-window
  burn-rate alerting over HealthSampler series, dumped to the flight
  recorder,
* :mod:`repro.profiling.attach` — one-call wiring per runtime
  (:func:`profile_sim` / :func:`profile_wall`), and the budget check:
  the observers' summed self-cost against a fraction of wall time
  (default 2%), measured once when the run stops,
* :mod:`repro.profiling.folded` — ``.folded`` profile I/O, cross-shard
  merge, and share-normalized run-to-run diffing,
* :mod:`repro.profiling.gc_probe` — cyclic-GC collections and seconds
  per generation, which no stack sampler can see.

Everything is stdlib-only and strictly opt-in: nothing here is
imported or scheduled on the default path, so trajectory goldens and
the zero-overhead guarantee of disabled telemetry hold.
"""

from repro.profiling.attach import (
    DEFAULT_BUDGET,
    ProfileSession,
    profile_sim,
    profile_wall,
)
from repro.profiling.folded import (
    diff_folded,
    format_diff,
    merge_folded,
    parse_folded,
    read_folded,
    write_folded,
)
from repro.profiling.sampler import (
    DEFAULT_GIL_HANDOFF_S,
    SimEventProfiler,
    WallStackProfiler,
    estimate_gil_handoff_cost,
)
from repro.profiling.slo import (
    DEFAULT_SLOS,
    SLO,
    BurnAlert,
    BurnRateMonitor,
)
from repro.profiling.stacks import StackAggregator, fold_frames

__all__ = [
    "BurnAlert",
    "BurnRateMonitor",
    "DEFAULT_BUDGET",
    "DEFAULT_GIL_HANDOFF_S",
    "DEFAULT_SLOS",
    "ProfileSession",
    "SLO",
    "SimEventProfiler",
    "StackAggregator",
    "WallStackProfiler",
    "diff_folded",
    "estimate_gil_handoff_cost",
    "fold_frames",
    "format_diff",
    "merge_folded",
    "parse_folded",
    "profile_sim",
    "profile_wall",
    "read_folded",
    "write_folded",
]
