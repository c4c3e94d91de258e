"""Table formatting and summary statistics shared by the experiment drivers."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the summary statistic the paper reports)."""
    values = [float(v) for v in values]
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def format_table(headers: Sequence[str], rows: Sequence[Sequence], *,
                 float_format: str = "{:.3f}") -> str:
    """Render an aligned plain-text table."""
    def render(cell) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered
              else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(header.ljust(width) for header, width in zip(headers, widths)),
             "  ".join("-" * width for width in widths)]
    for row in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)

