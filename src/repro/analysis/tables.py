"""ASCII tables and figure-series rendering for the experiments.

Every experiment prints the rows/series of the paper figure it
regenerates; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..core import units


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if math.isinf(value):
            return "inf"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}"
    return str(value)


def format_series_table(
    series: Dict[str, List[Tuple[float, float]]],
    metric_name: str,
    time_metric: bool = False,
    title: str = "",
) -> str:
    """Render figure series ({label: [(load, value), ...]}) as one table
    with a load column and one column per label — the paper-figure data
    in text form.  ``time_metric=True`` formats values as durations."""
    loads = sorted({load for points in series.values() for load, _ in points})
    labels = list(series)
    lookup = {
        label: {load: value for load, value in points}
        for label, points in series.items()
    }
    rows: List[List[object]] = []
    for load in loads:
        row: List[object] = [f"{load:.2f}"]
        for label in labels:
            value = lookup[label].get(load)
            if value is None or (isinstance(value, float) and math.isnan(value)):
                row.append("—")  # overloaded: curve cut, as in the paper
            elif time_metric:
                row.append(units.fmt_duration(value))
            else:
                row.append(value)
        rows.append(row)
    headers = [f"load (jobs/h) \\ {metric_name}"] + labels
    return format_table(headers, rows, title=title)


def format_histogram(rows: Sequence[Tuple[str, int]], title: str = "") -> str:
    """Render (label, count) rows with proportional bars."""
    peak = max((count for _, count in rows), default=1)
    lines: List[str] = []
    if title:
        lines.append(title)
    width = max((len(label) for label, _ in rows), default=0)
    for label, count in rows:
        bar = "#" * (0 if peak == 0 else round(40 * count / peak))
        lines.append(f"{label.rjust(width)}  {count:6d} {bar}")
    return "\n".join(lines)
