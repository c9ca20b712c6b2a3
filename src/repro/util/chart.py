"""ASCII line charts for figure-style experiment output.

The paper's *figures* (E3, E6, E8) deserve figure-shaped output, not
just tables: the bench harness renders each curve family as an ASCII
chart so the knee/crossover/blow-up is visible in test logs.
"""

import math
from typing import Dict, List, Sequence, Tuple

#: Markers assigned to series in insertion order.
MARKERS = "*o+x#%@&"

Point = Tuple[float, float]


def ascii_chart(
    series: Dict[str, Sequence[Point]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render point series onto a character grid.

    Each series gets a marker from :data:`MARKERS`; the legend maps them
    back. Log scales reject non-positive coordinates loudly rather than
    silently dropping points.
    """
    if not series:
        raise ValueError("ascii_chart needs at least one series")
    width, height = 64, 16

    def tx(v: float) -> float:
        if log_x:
            if v <= 0:
                raise ValueError(f"log x-axis cannot place {v}")
            return math.log10(v)
        return v

    def ty(v: float) -> float:
        if log_y:
            if v <= 0:
                raise ValueError(f"log y-axis cannot place {v}")
            return math.log10(v)
        return v

    points = [(tx(x), ty(y)) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("ascii_chart needs at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        col = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][col] = marker

    legend = []
    for index, (name, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        legend.append(f"{marker} = {name}")
        for x, y in pts:
            place(tx(x), ty(y), marker)

    def fmt(v: float, log: bool) -> str:
        value = 10 ** v if log else v
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.0f}"
        return f"{value:.2g}"

    gutter = max(len(fmt(y_hi, log_y)), len(fmt(y_lo, log_y))) + 1
    lines: List[str] = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(f"[y: {y_label}]")
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = fmt(y_hi, log_y)
        elif row_index == height - 1:
            label = fmt(y_lo, log_y)
        elif row_index == height // 2:
            label = fmt((y_hi + y_lo) / 2, log_y)
        else:
            label = ""
        lines.append(label.rjust(gutter) + " |" + "".join(row))
    lines.append(" " * gutter + " +" + "-" * width)
    left = fmt(x_lo, log_x)
    right = fmt(x_hi, log_x)
    mid = fmt((x_lo + x_hi) / 2, log_x)
    axis = left + mid.center(width - len(left) - len(right)) + right
    lines.append(" " * gutter + "  " + axis)
    if x_label:
        lines.append(" " * gutter + "  " + f"[x: {x_label}]".center(width))
    lines.append("  " + "   ".join(legend))
    return "\n".join(lines)
