"""Every ``src/repro`` module and name is reachable from an entry point.

The entry points are the ``[project.scripts]`` modules, the non-test
files of ``benchmarks/e2e/`` and ``examples/``, the figure modules
``repro.experiments.FIGURES`` names (the experiments CLI loads them
with ``importlib``) and the sweep table, ``repro.experiments.sweeps``.
The closure follows every ``import`` statement, in function bodies too,
and every package a module sits in.
A module outside it is reached from ``tests/`` only: delete it, or name
it in :data:`ALLOWED` with the reason it stays (its package and what it
imports then stay with it).

The same holds one level down: every function, class and method defined
under ``src/repro`` is named somewhere in a non-test file outside its
own definition (see :func:`name_references`).  A method is named only
through an attribute (``x.feasible``) or a string: a local variable of
the same name does not reach it.  One that is not named is called from
tests only: delete it, or name it in :data:`ALLOWED_NAMES` with the
reason it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.experiments import FIGURES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Modules kept although no entry point imports them, with the reason.
ALLOWED = {
    "repro.analysis.queueing":
        "M/D/1 and M/M/1 oracle of tests/test_analysis.py::TestSimulatorVsTheory",
}


#: Definitions no non-test file names, kept with the reason.
ALLOWED_NAMES = {
    "repro.analysis.queueing.mm1_mean_wait":
        "M/M/1 oracle of tests/test_analysis.py (module kept in ALLOWED)",
    "repro.analysis.queueing.mm1_mean_response":
        "M/M/1 oracle of tests/test_analysis.py (module kept in ALLOWED)",
    "repro.analysis.queueing.md1_mean_response":
        "M/D/1 oracle of tests/test_analysis.py (module kept in ALLOWED)",
    "repro.core.control.placement.register_policy":
        "the documented extension point (docs/architecture.md)",
    "repro.core.estimate.CompletionTimeEstimator.path_overloads":
        "readable reference of the capacity check allocate inlines; "
        "tests/test_properties.py::TestAllocatorDifferential rebuilds "
        "every candidate from it",
    "repro.core.estimate.CompletionTimeEstimator.service_time":
        "readable reference of the arithmetic estimate_path inlines; "
        "tests/test_estimate_allocation.py checks paths against it",
    "repro.core.fairness.optimal_single_load":
        "the l_best of §4.2: tests/test_fairness.py checks the "
        "non-monotonic fairness index against it",
    "repro.core.peer.Peer.request_qos_change":
        "§4.5 renegotiation, the only QOS_UPDATE sender",
    "repro.experiments.base.ExperimentResult.column":
        "the paper-claim checks (tests/test_paper_claims.py) read "
        "results through it",
    "repro.runtime.transport.UdpTransport.error_received":
        "asyncio.DatagramProtocol callback",
    "repro.summaries.bloom.BloomFilter.for_capacity":
        "the standard m = -n ln p / (ln 2)^2 sizing the module documents",
    "repro.telemetry.timeseries.SeriesRing.quantile":
        "the readback tests/test_profiling.py::TestSeriesRingRollup "
        "checks the count-weighted rollup through",
    "repro.telemetry.deactivate":
        "the documented inverse of activate; test fixtures restore the "
        "no-op handle with it",
    "repro.telemetry.httpd.TelemetryHTTPServer.__init__._Handler.do_GET":
        "http.server request-handler callback",
    "repro.telemetry.httpd.TelemetryHTTPServer.__init__._Handler"
    ".log_message":
        "http.server request-handler callback",
    "repro.telemetry.logs._EnsureNode.filter":
        "logging.Filter callback",
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


def script_functions() -> set[str]:
    """The functions ``pyproject.toml``'s ``[project.scripts]`` call."""
    text = (ROOT / "pyproject.toml").read_text()
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'^\S+\s*=\s*"[\w.]+:(\w+)"', table, re.MULTILINE))


def definitions(path: Path, module: str) -> list[tuple[str, ast.AST, bool]]:
    """``(dotted name, node, is_method)`` of every function and class in
    *path*, nested ones included; *is_method* is true for a definition
    in a class body."""
    out = []

    def visit(body: list, owner: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = f"{owner}.{node.name}"
                out.append((name, node, in_class))
                visit(node.body, name, isinstance(node, ast.ClassDef))
            else:
                for block in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, block, None) or [], owner, in_class)

    visit(ast.parse(path.read_text(), str(path)).body, module, False)
    return out


def name_references(path: Path) -> list[tuple[str, int, bool]]:
    """``(identifier, line, bare)`` for every name *path* uses: a
    variable (*bare*), an attribute, or a string constant spelling one
    (``getattr`` tables).  Imports and the strings of ``__all__`` are
    not uses."""
    tree = ast.parse(path.read_text(), str(path))
    exported = {
        id(node)
        for stmt in tree.body if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, False))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            refs.append((node.value, node.lineno, False))
    return refs


def unreferenced_names() -> set[str]:
    """Definitions under ``src/repro`` that no non-test file names
    outside the definition itself (dunders and script ``main``s aside)."""
    modules = src_modules()
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in [*modules.values(), *entry_files()]:
        for name, line, bare in name_references(path):
            uses.setdefault(name, []).append((path, line, bare))
    called = script_functions()
    out = set()
    for module, path in modules.items():
        for dotted, node, is_method in definitions(path, module):
            name = dotted.rsplit(".", 1)[1]
            if name.startswith("__") and name.endswith("__") or name in called:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                (p != path or not first <= line <= node.end_lineno)
                and not (bare and is_method)
                for p, line, bare in uses.get(name, ())
            ):
                out.add(dotted)
    return out


def test_entry_points_exist():
    scripts = script_modules()
    assert len(scripts) == 7
    modules = src_modules()
    assert scripts <= set(modules)
    assert experiment_modules() <= set(modules)
    assert entry_files()


def experiment_modules() -> set[str]:
    """The figure modules and the sweep table the experiments CLI runs."""
    return set(FIGURES.values()) | {"repro.experiments.sweeps"}


def reached(extra: set[str] = frozenset()) -> tuple[set[str], dict[str, Path]]:
    modules = src_modules()
    roots = script_modules() | experiment_modules() | extra
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


def test_every_name_is_reachable():
    unreached = sorted(unreferenced_names() - set(ALLOWED_NAMES))
    assert unreached == [], (
        f"named from tests only: {unreached}; delete them or list them "
        "in ALLOWED_NAMES with the reason they stay"
    )


def test_name_allowlist_is_current():
    """An allowed name that a non-test file names, or that is gone,
    leaves the list."""
    assert set(ALLOWED_NAMES) <= unreferenced_names()
