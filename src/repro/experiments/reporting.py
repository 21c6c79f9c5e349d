"""Result containers and plain-text table rendering for the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ExperimentResult:
    """A reproduced table/figure: headers + rows, paper-format."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: str = ""
    #: gate verdicts of a gated bench (None for plain tables/figures); the
    #: registry CLI exits non-zero when ``gates["passed"]`` is false
    gates: Optional[Dict[str, bool]] = None

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values but {len(self.headers)} headers")
        self.rows.append(values)

    def column(self, header: str) -> List[Any]:
        if header not in self.headers:
            raise KeyError(f"no column {header!r}; have {list(self.headers)}")
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-ready view (used by the registry CLI's ``--json`` dump)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    def render(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[str(h) for h in self.headers]]
        cells += [[_fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(self.headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for row_index, row in enumerate(cells):
            line = "  ".join(value.rjust(width)
                             for value, width in zip(row, widths))
            lines.append(line)
            if row_index == 0:
                lines.append("-" * len(line))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_ms(seconds: float) -> float:
    """Seconds → milliseconds, rounded for table display."""
    return round(seconds * 1e3, 3)


def format_mb(num_bytes: float) -> float:
    return round(num_bytes / (1024 * 1024), 2)
