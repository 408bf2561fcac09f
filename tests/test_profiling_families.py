"""Every profiling metric family is documented, and every documented
one is registered.

The families are the ``repro_prof_*`` and ``repro_slo_*`` names that
code under ``src/repro/profiling/`` registers: a string literal as the
first argument of a ``gauge``, ``counter``, ``histogram`` or
``observe`` call.  docs/observability.md must name each of them, and
every such name it gives must be one of them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILY = re.compile(r"repro_(?:prof|slo)_[a-z_]+")
REGISTERS = {"gauge", "counter", "histogram", "observe"}


def registered() -> set:
    names = set()
    for path in (ROOT / "src" / "repro" / "profiling").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REGISTERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and FAMILY.fullmatch(node.args[0].value)
            ):
                names.add(node.args[0].value)
    return names


def test_profiling_families_match_the_docs():
    code = registered()
    docs = set(FAMILY.findall(
        (ROOT / "docs" / "observability.md").read_text()
    ))
    assert code, "no family found under src/repro/profiling"
    assert code - docs == set(), "registered but undocumented"
    assert docs - code == set(), "documented but not registered"
