"""Terminal plotting: ASCII line charts for the figures.

With no display, the benchmark harness renders the paper's per-span
curves (Fig. 4) as text.  The renderer is dependency-free and
deterministic so figure output can be diffed across runs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

_MARKERS = "ox+*#@%&"


def ascii_line_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 14,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render named series as an ASCII chart with a shared y-axis.

    Each series gets a marker character; a legend is appended.  X values
    are the series indices (the paper's time spans).
    """
    names = list(series)
    if not names:
        return "(no series)"
    lengths = {len(series[n]) for n in names}
    if len(lengths) != 1:
        raise ValueError("all series must have the same length")
    n_points = lengths.pop()
    if n_points == 0:
        return "(empty series)"

    values = np.array([list(series[n]) for n in names], dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for row_idx, name in enumerate(names):
        marker = _MARKERS[row_idx % len(_MARKERS)]
        for j in range(n_points):
            x = int(round(j * (width - 1) / max(1, n_points - 1)))
            frac = (values[row_idx, j] - lo) / (hi - lo)
            y = height - 1 - int(round(frac * (height - 1)))
            grid[y][x] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{hi:.3f}"
    bottom_label = f"{lo:.3f}"
    pad = max(len(top_label), len(bottom_label))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = top_label.rjust(pad)
        elif i == height - 1:
            prefix = bottom_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(names)
    )
    lines.append(f"{' ' * pad}  {legend}" + (f"   [{y_label}]" if y_label else ""))
    return "\n".join(lines)

