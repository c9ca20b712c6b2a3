"""Plain-text table renderer for paper-style output.

The benchmark harness prints each regenerated table/figure as an aligned
text table so ``pytest benchmarks/ --benchmark-only -s`` output can be
compared side by side with the paper.
"""

from typing import Any, List, Sequence


class Table:
    """Accumulate rows, then render aligned columns."""

    def __init__(self, title: str, columns: Sequence[str]):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self._rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row; cell count must match the header."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self._rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        """Return the table as an aligned multi-line string."""
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self._rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(cell: Any) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1000:
            return f"{cell:,.0f}"
        if magnitude >= 1:
            return f"{cell:.3g}"
        return f"{cell:.3g}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)
