"""Benchmark output formatting: the paper's tables and figure series."""

from repro.reporting.figures import stacked_bars
from repro.reporting.tables import (
    format_diagnostics,
    format_stage_breakdown,
    format_table,
)

__all__ = ["format_diagnostics", "format_stage_breakdown", "format_table",
           "stacked_bars"]
