"""ASCII bar rendering for the figure benches.

The paper's figures are bar/line charts; the benchmarks print tables for
exactness and stacked horizontal bars of the loading-phase breakdowns for
shape-at-a-glance.
"""

from __future__ import annotations

from typing import Dict, Sequence

#: One glyph per stage for stacked bars, cycled in order.
_STACK_GLYPHS = "█▓▒░▚▞▗"
#: Cells in the longest bar.
_BAR_WIDTH = 60


def stacked_bars(title: str, labels: Sequence[str],
                 segments: Dict[str, Sequence[float]]) -> str:
    """Stacked horizontal bars: one row per label, one glyph per segment.

    ``segments`` maps segment name -> per-label seconds (all equal
    length); the longest bar is :data:`_BAR_WIDTH` cells.
    """
    names = list(segments)
    totals = [sum(segments[name][i] for name in names)
              for i in range(len(labels))]
    peak = max(totals) if totals else 1.0
    label_width = max(len(label) for label in labels) if labels else 0
    lines = [title, "=" * len(title)]
    legend = "  ".join(
        f"{_STACK_GLYPHS[i % len(_STACK_GLYPHS)]}={name}"
        for i, name in enumerate(names))
    lines.append(f"legend: {legend}")
    for row, label in enumerate(labels):
        bar = ""
        for index, name in enumerate(names):
            glyph = _STACK_GLYPHS[index % len(_STACK_GLYPHS)]
            cells = round(_BAR_WIDTH * segments[name][row] / peak) \
                if peak else 0
            bar += glyph * cells
        lines.append(f"{label.ljust(label_width)}  {bar} "
                     f"{totals[row]:.3g}s")
    return "\n".join(lines)
