"""One fixed map from source path to layer, and the profile fold.

A layer is a module of this repository (plus four buckets for code
outside it).  The map is by path prefix under ``src/repro/``, first
match wins, so a profile taken before and after a change is folded the
same way and a moved share names the layer that moved.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Tuple

#: Prefix under ``src/repro/`` -> layer.  Longer prefixes come first.
REPRO_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("net/", "net"),
    ("core/control/", "core.control"),
    ("core/", "core"),
    ("tasks/", "core"),
    ("baselines/", "core"),
    ("common/", "core"),
    ("__init__.py", "core"),
    ("graphs/", "graphs"),
    ("scheduling/", "scheduling"),
    ("monitoring/", "monitoring"),
    ("gossip/", "gossip"),
    ("summaries/", "summaries"),
    ("overlay/", "overlay"),
    ("workloads/", "workloads"),
    ("media/", "workloads"),
    ("pipelines/", "workloads"),
    ("scenarios/", "workloads"),
    ("experiments/", "workloads"),
    ("benchmarking/", "workloads"),
    ("results/", "results"),
    ("metrics/", "results"),
    ("analysis/", "results"),
    ("reporting/", "results"),
    ("runtime/codec.py", "runtime.codec"),
    ("runtime/transport.py", "runtime.transport"),
    ("runtime/node.py", "runtime.node"),
    # Everything else in the runtime is cluster plumbing: bootstrap,
    # roster, shard hosts, supervisor, CLIs.
    ("runtime/", "runtime.cluster"),
    ("telemetry/", "telemetry"),
    ("profiling/", "telemetry"),
)

LAYERS: Tuple[str, ...] = (
    "sim", "net", "core", "core.control", "graphs", "scheduling",
    "monitoring", "gossip", "summaries", "overlay", "workloads", "results",
    "runtime.codec", "runtime.transport", "runtime.node", "runtime.cluster",
    "telemetry", "py.asyncio", "py.json", "py.other", "bench",
)

_REPRO_MARK = "/repro/"
_BENCH_MARK = "/benchmarks/e2e/"


def layer_of(path: str) -> str:
    """The layer a source file belongs to."""
    path = path.replace(os.sep, "/")
    if _BENCH_MARK in path:
        return "bench"
    at = path.rfind(_REPRO_MARK)
    if at >= 0:
        rel = path[at + len(_REPRO_MARK):]
        for prefix, layer in REPRO_LAYERS:
            if rel.startswith(prefix):
                return layer
    if "/asyncio/" in path or path.endswith("/selectors.py"):
        return "py.asyncio"
    if "/json/" in path:
        return "py.json"
    return "py.other"


def _is_idle(code: Any) -> bool:
    """The selector's wait for I/O: elapsed time, not work."""
    return isinstance(code, str) and "poll" in code and "select." in code


def fold_profile(entries: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer totals.

    A Python function's self time goes to the layer of its file.  A
    built-in has no file, so each of its calls is charged to the layer
    of the Python function that made it (``heappop`` to ``sim``, the C
    JSON encoder to ``py.json``).  The event loop's wait in the
    selector is idle time and is left out, so shares are of busy time.
    """
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in entries:
        if isinstance(entry.code, str):
            continue  # reached through its callers below
        row = totals[layer_of(entry.code.co_filename)]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str) and not _is_idle(sub.code):
                row["self_s"] += sub.inlinetime
                row["calls"] += sub.callcount
    return totals


def shares(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of all busy self time; sums to 1."""
    whole = sum(row["self_s"] for row in totals.values())
    return {
        layer: (row["self_s"] / whole if whole else 0.0)
        for layer, row in totals.items()
    }
