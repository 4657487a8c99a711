"""Plain-text table/series rendering for the benchmark harness.

Every benchmark prints the rows/series the corresponding paper table or
figure reports, in a stable plain-text format that diffs cleanly across
runs (EXPERIMENTS.md records these outputs).
"""

from __future__ import annotations

from typing import Sequence, Union

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Cell]]) -> str:
    """An aligned plain-text table with a title rule."""
    rendered = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_diagnostics(title: str, diagnostics: Sequence) -> str:
    """Render static-analysis / validation diagnostics as one table.

    Accepts any objects with ``code``, ``severity``, ``location``, and
    ``message`` attributes (:class:`repro.analysis.Diagnostic`), so runtime
    validation reports and lint reports share one rendering path.
    """
    if not diagnostics:
        return f"{title}\n{'=' * len(title)}\n(no diagnostics)"
    rows = [[d.code, d.severity, d.location or "-", d.message]
            for d in diagnostics]
    return format_table(title, ["code", "severity", "location", "message"],
                        rows)


def format_stage_breakdown(title: str, timeline) -> str:
    """Render a cold-start timeline's per-stage schedule as one table.

    One row per scheduled stage: name, resource lane, start/end/duration
    (simulated seconds), and flags — ``*`` for critical-path stages, ``bg``
    for background stages that finish behind the serving-ready instant
    (the pipelined ``restore_graph`` tail) — the LoadPlan trace surfaced in
    the ``repro coldstart``/``restore``/``validate`` tables.  When the two
    instants differ, ready/total footer lines make the shortened critical
    path visible in text output.
    """
    def flags(stage) -> str:
        if stage.background:
            return "bg"
        return "*" if stage.critical else ""

    rows = [[stage.name, stage.lane, stage.start, stage.end,
             stage.duration, flags(stage)]
            for stage in timeline.stages]
    table = format_table(
        title,
        ["stage", "lane", "start (s)", "end (s)", "duration (s)", "flags"],
        rows)
    ready = timeline.ready
    if abs(ready - timeline.total) > 1e-12:
        table += (f"\nready (serving) at {ready:.4f} s; background restore "
                  f"finishes at {timeline.total:.4f} s")
    return table
