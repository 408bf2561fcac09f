"""Ids belong to the run: no counter outlives it, and live lives differ."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import repro

SRC = Path(repro.__file__).parent


def _outside_functions(node: ast.AST) -> Iterator[ast.AST]:
    """*node* and its descendants, not entering function bodies."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            yield from _outside_functions(child)


def _is_count(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "count" and getattr(
            func.value, "id", None
        ) == "itertools"
    return isinstance(func, ast.Name) and func.id == "count"


def test_no_module_level_id_counter():
    """A counter at module or class level, or rebound through
    ``global``, outlives the run: the next run in the process would
    continue its numbering.  Instance counters (the run's :class:`Ids`,
    a tracer's span ids) are the only kind allowed."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        where = f"{path.relative_to(SRC)}"
        offenders += [
            f"{where}:{n.lineno}"
            for n in _outside_functions(tree) if _is_count(n)
        ]
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rebound = {
                name for g in ast.walk(fn) if isinstance(g, ast.Global)
                for name in g.names
            }
            offenders += [
                f"{where}:{n.lineno}" for n in ast.walk(fn)
                if isinstance(n, ast.Assign) and _is_count(n.value)
                and any(getattr(t, "id", None) in rebound for t in n.targets)
            ]
    assert offenders == []


_SUBMIT_ONE = """
import asyncio
from repro.runtime.cluster import LiveCluster, LiveClusterConfig

async def main():
    cfg = LiveClusterConfig(object_duration_s=0.2)
    async with LiveCluster(cfg) as cluster:
        print((await cluster.submit("P4", timeout=10.0))["task_id"])

asyncio.run(main())
"""


@pytest.mark.integration
def test_respawned_rm_does_not_reuse_task_ids():
    """Regression: a respawned RM shard numbered tasks from ``t1``
    again, and the supervisor's ledger (keyed by task id) merged the new
    task into the dead life's.  Two fresh interpreters stand in for two
    lives of one RM: the task each one names must differ."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    ids = [
        subprocess.run(
            [sys.executable, "-c", _SUBMIT_ONE], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout.strip()
        for _ in range(2)
    ]
    assert all(i.startswith("t") for i in ids)
    assert ids[0] != ids[1]
