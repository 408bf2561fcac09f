"""``Scenario.run`` keeps cyclic GC off the built population.

The run freezes the heap it is handed and unfreezes on exit; nothing in
``src/repro`` may let a decision depend on when the collector runs.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path

import pytest

import repro
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)

SRC = Path(repro.__file__).parent
#: The only modules that may touch the collector.
GC_MODULES = {"workloads/scenario.py", "profiling/gc_probe.py"}


def small_scenario():
    return build_scenario(ScenarioConfig(
        seed=5,
        population=PopulationConfig(n_peers=8, n_objects=4),
        workload=WorkloadConfig(rate=0.5),
    ))


def spawn(scenario, body):
    """Run *body* once from a sim process, one simulated second in."""
    env = scenario.env

    def proc():
        yield env.timeout(1.0)
        body()

    env.process(proc())


@pytest.fixture(autouse=True)
def _no_freeze_left():
    assert gc.get_freeze_count() == 0
    yield
    gc.unfreeze()


def test_process_inside_run_sees_frozen_heap():
    scenario = small_scenario()
    counts = []
    spawn(scenario, lambda: counts.append(gc.get_freeze_count()))
    scenario.run(duration=5.0, drain=0.0)
    assert len(counts) == 1 and counts[0] > 0
    assert gc.get_freeze_count() == 0


def test_failed_run_unfreezes():
    scenario = small_scenario()

    def boom():
        raise RuntimeError("boom")

    spawn(scenario, boom)
    with pytest.raises(RuntimeError, match="boom"):
        scenario.run(duration=5.0, drain=0.0)
    assert gc.get_freeze_count() == 0


def test_caller_freeze_is_kept():
    scenario = small_scenario()
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    # Tracked and alive, but young: a second freeze would take them in.
    young = [{} for _ in range(10_000)]
    counts = []
    spawn(scenario, lambda: counts.append(gc.get_freeze_count()))
    scenario.run(duration=5.0, drain=0.0)
    # The run neither froze on top of the caller (the count can only
    # shrink, as frozen objects die) nor unfroze the caller's heap.
    assert len(counts) == 1 and 0 < counts[0] <= frozen
    assert 0 < gc.get_freeze_count() <= frozen
    assert len(young) == 10_000


def _module_names(node: ast.AST):
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module.split(".")[0]]
    return []


def test_decisions_cannot_depend_on_collection_timing():
    """No finalizer, no weak reference, and the collector is touched
    only by the run's freeze and the profiling probe."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            modules = _module_names(node)
            if "weakref" in modules:
                offenders.append(f"{where}:{node.lineno} imports weakref")
            if "gc" in modules and where not in GC_MODULES:
                offenders.append(f"{where}:{node.lineno} imports gc")
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "__del__"
            ):
                offenders.append(f"{where}:{node.lineno} defines __del__")
    assert offenders == []
