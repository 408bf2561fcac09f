"""Every ``src/repro`` module is reachable from an entry point.

The entry points are the ``[project.scripts]`` modules, the non-test
files of ``benchmarks/e2e/`` and ``examples/``, and the experiment
modules ``repro.experiments.EXPERIMENTS`` names (the experiments CLI
loads them with ``importlib``).  The closure follows every ``import``
statement, in function bodies too, and every package a module sits in.
A module outside it is reached from ``tests/`` only: delete it, or name
it in :data:`ALLOWED` with the reason it stays (its package and what it
imports then stay with it).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Modules kept although no entry point imports them, with the reason.
ALLOWED = {
    "repro.analysis.queueing":
        "M/D/1 and M/M/1 oracle of tests/test_analysis.py::TestSimulatorVsTheory",
}


def src_modules() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def script_modules() -> set[str]:
    """The modules ``pyproject.toml``'s ``[project.scripts]`` names."""
    text = (ROOT / "pyproject.toml").read_text()
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'^\S+\s*=\s*"([\w.]+):\w+"', table, re.MULTILINE))


def imported_names(path: Path) -> set[str]:
    """Every dotted name *path* imports, and ``a.b.c`` for ``from a.b import c``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def closure(roots: set[str], files: list[Path], modules: dict[str, Path]) -> set[str]:
    """The ``src/repro`` modules *roots* and *files* reach, packages included."""
    seen: set[str] = set()
    todo = [imported_names(f) for f in files] + [set(roots)]
    while todo:
        for name in todo.pop():
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                mod = ".".join(parts[:i])
                if mod in modules and mod not in seen:
                    seen.add(mod)
                    todo.append(imported_names(modules[mod]))
    return seen


def entry_files() -> list[Path]:
    bench = [
        p for p in (ROOT / "benchmarks" / "e2e").glob("*.py")
        if not p.name.startswith("test_") and p.name != "conftest.py"
    ]
    return bench + list((ROOT / "examples").glob("*.py"))


def test_entry_points_exist():
    scripts = script_modules()
    assert len(scripts) == 7
    modules = src_modules()
    assert scripts <= set(modules)
    assert set(EXPERIMENTS.values()) <= set(modules)
    assert entry_files()


def reached(extra: set[str] = frozenset()) -> tuple[set[str], dict[str, Path]]:
    modules = src_modules()
    roots = script_modules() | set(EXPERIMENTS.values()) | extra
    return closure(roots, entry_files(), modules), modules


def test_every_module_is_reachable():
    kept, modules = reached(set(ALLOWED))
    unreached = sorted(set(modules) - kept)
    assert unreached == [], (
        f"reached from tests only: {unreached}; delete them or list them "
        "in ALLOWED with the reason they stay"
    )


def test_allowlist_is_current():
    """An allowed module that an entry point reaches, or that is gone,
    leaves the list."""
    entry, modules = reached()
    assert set(ALLOWED) <= set(modules) - entry
