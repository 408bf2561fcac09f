"""``Scenario.run`` keeps cyclic GC off the built population.

The run freezes the heap it is handed and raises the young generation's
threshold, and undoes both on exit; nothing in ``src/repro`` may let a
decision depend on when the collector runs.
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
from repro.workloads.scenario import YOUNG_THRESHOLD

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
    thresholds = gc.get_threshold()
    yield
    gc.unfreeze()
    gc.set_threshold(*thresholds)


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


def test_run_raises_young_threshold_and_restores_it():
    scenario = small_scenario()
    gc.set_threshold(700, 10, 10)
    seen = []
    spawn(scenario, lambda: seen.append(gc.get_threshold()))
    scenario.run(duration=5.0, drain=0.0)
    assert seen == [(YOUNG_THRESHOLD, 10, 10)]
    assert gc.get_threshold() == (700, 10, 10)


def test_failed_run_restores_thresholds():
    scenario = small_scenario()
    gc.set_threshold(500, 7, 9)

    def boom():
        assert gc.get_threshold() == (YOUNG_THRESHOLD, 7, 9)
        raise RuntimeError("boom")

    spawn(scenario, boom)
    with pytest.raises(RuntimeError, match="boom"):
        scenario.run(duration=5.0, drain=0.0)
    assert gc.get_threshold() == (500, 7, 9)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("caller", [
    (0, 10, 10),  # automatic collection off: the run keeps it off
    (YOUNG_THRESHOLD * 3, 4, 5),  # already higher: not lowered
])
def test_caller_thresholds_are_kept(caller):
    scenario = small_scenario()
    gc.set_threshold(*caller)
    seen = []
    spawn(scenario, lambda: seen.append(gc.get_threshold()))
    scenario.run(duration=5.0, drain=0.0)
    assert seen == [caller]
    assert gc.get_threshold() == caller


def test_env_run_keeps_the_default_threshold():
    """Warm-up, benchmark drain slices and the golden enter ``env.run``
    directly: only ``Scenario.run`` moves the threshold."""
    scenario = small_scenario()
    before = gc.get_threshold()
    seen = []
    spawn(scenario, lambda: seen.append(gc.get_threshold()))
    scenario.env.run(until=5.0)
    assert seen == [before]


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
