"""Static artifact verification: multi-pass analysis with no execution.

``repro.analysis`` proves a packed artifact
(:class:`~repro.core.binfmt.LazyArtifact`, the tables the restorer reads)
internally consistent *before* the latency-critical online restore touches
it — replay-sequence liveness, pointer bounds and use-after-free, graph
topology, kernel resolvability, and dump coverage.  See
``docs/MECHANISM.md`` ("Static verification") for the MED0xx code table.
"""

from repro.analysis.analyzer import lint_artifact
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    ERROR,
    LintReport,
    WARNING,
)
from repro.analysis.liveness import (
    LivenessResult,
    MAPPED,
    SUPERSEDED,
    UNMAPPED,
    analyze_replay,
)
from repro.analysis.planlint import (
    concurrent_pairs,
    happens_before,
    lint_plan,
    lint_registered_plans,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "ERROR",
    "WARNING",
    "LintReport",
    "LivenessResult",
    "MAPPED",
    "SUPERSEDED",
    "UNMAPPED",
    "analyze_replay",
    "lint_artifact",
]
