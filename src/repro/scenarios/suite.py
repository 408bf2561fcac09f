"""The adversarial scenario suite behind ``repro-bench --suite``.

Discovers pinned scenario configs (``benchmarks/scenarios/*.json`` by
convention), runs each through the DSL builder with the same
warmup/repeat discipline as the performance suite, and returns
:class:`BenchRecord` s whose ``metrics`` carry the full per-scenario
metrics document — so the report keeps the performance suite's schema.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from repro.benchmarking import harness
from repro.scenarios.builder import run_spec
from repro.scenarios.spec import ScenarioSpec, load_spec

#: Where the pinned suite lives, relative to the repo root.
DEFAULT_SCENARIO_DIR = os.path.join("benchmarks", "scenarios")

#: ``--quick`` caps (CI smoke): long scripted runs shrink to these.
QUICK_DURATION = 45.0
QUICK_DRAIN = 15.0


def discover(scenario_dir: str = DEFAULT_SCENARIO_DIR) -> List[str]:
    """Paths of the scenario configs in *scenario_dir*, name-sorted."""
    if not os.path.isdir(scenario_dir):
        raise FileNotFoundError(
            f"scenario directory not found: {scenario_dir}"
        )
    out = [
        os.path.join(scenario_dir, name)
        for name in sorted(os.listdir(scenario_dir))
        if name.endswith((".json", ".toml"))
    ]
    if not out:
        raise FileNotFoundError(
            f"no scenario configs (*.json, *.toml) in {scenario_dir}"
        )
    return out


def _quicken(spec: ScenarioSpec) -> ScenarioSpec:
    spec.duration = min(spec.duration, QUICK_DURATION)
    spec.drain = min(spec.drain, QUICK_DRAIN)
    return spec


def make_bench_fn(
    path: str, quick: bool = False, out_dir: str = "."
) -> Callable[[], Dict[str, Any]]:
    """A harness-compatible thunk running one scenario config."""

    def fn() -> Dict[str, Any]:
        spec = load_spec(path)
        if quick:
            _quicken(spec)
        doc = run_spec(spec, out_dir=out_dir)
        return {"events": doc["events"], "metrics": doc}

    return fn


def run_suite(
    scenario_dir: str = DEFAULT_SCENARIO_DIR,
    only: Optional[List[str]] = None,
    quick: bool = False,
    warmup: int = 0,
    repeat: int = 1,
    out_dir: str = ".",
    progress: Optional[Callable[[str], None]] = None,
    profile: bool = False,
) -> List[harness.BenchRecord]:
    """Run the discovered scenario configs; returns their records.

    ``only`` filters by scenario name (the config's ``name`` field,
    which by convention matches the file stem).
    """
    paths = discover(scenario_dir)
    if only is not None:
        stems = {
            os.path.splitext(os.path.basename(p))[0]: p for p in paths
        }
        unknown = [n for n in only if n not in stems]
        if unknown:
            raise KeyError(
                f"unknown scenario(s) {unknown}; known: {sorted(stems)}"
            )
        paths = [stems[n] for n in only]

    records: List[harness.BenchRecord] = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if progress is not None:
            progress(name)
        record = harness.run_benchmark(
            name,
            make_bench_fn(path, quick=quick, out_dir=out_dir),
            params={"config": path, "quick": quick},
            warmup=warmup,
            repeat=repeat,
            profile=profile,
        )
        records.append(record)
    return records
