"""Shared experiment plumbing: one result table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.util import fmt_table


@dataclass
class ExperimentResult:
    """One experiment's regenerated table (plus free-form notes)."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"{len(cells)} cells for {len(self.headers)} headers"
            )
        self.rows.append(list(cells))

    def table(self, floatfmt: str = ".3f") -> str:
        return fmt_table(self.headers, self.rows, floatfmt=floatfmt)

    def render(self) -> str:
        out = [f"== {self.experiment_id.upper()}: {self.title} ==",
               self.table()]
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def column(self, header: str) -> List[Any]:
        """Extract one column by header name (for tests/plots)."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

