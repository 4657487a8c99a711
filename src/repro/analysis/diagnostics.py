"""Diagnostics vocabulary of the static artifact verifier.

Every finding the analyzer emits carries a *stable* ``MED0xx`` error code
(registered here, with the paper section it guards), a severity, a
human-readable message, and an artifact location string such as
``replay[42]`` or ``graphs[4].nodes[7].params[2]``.  Stable codes let the
mutation-testing harness, CI, and downstream tooling assert on *which*
invariant broke rather than string-matching messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one stable diagnostic code."""

    code: str
    title: str
    section: str        # the paper section whose invariant the code guards
    severity: str       # default severity


#: The full registry.  Codes are append-only: never renumber or reuse one,
#: a retired code included.
CODES: Dict[str, CodeInfo] = {info.code: info for info in (
    # -- replay-sequence liveness (§4.2) --------------------------------
    CodeInfo("MED001", "replay allocation index drift", "§4.2", ERROR),
    CodeInfo("MED002", "free of unknown allocation index", "§4.2", ERROR),
    CodeInfo("MED003", "double free", "§4.2", ERROR),
    CodeInfo("MED004", "non-positive allocation size", "§4.2", ERROR),
    CodeInfo("MED005", "unknown replay event kind", "§4.2", ERROR),
    CodeInfo("MED006", "anchor allocation missing or mis-tagged", "§6", ERROR),
    # -- pointer bounds & use-after-free (§4.1) -------------------------
    CodeInfo("MED010", "pointer allocation index out of range", "§4.1", ERROR),
    CodeInfo("MED011", "pointer offset outside allocation", "§4.1", ERROR),
    CodeInfo("MED012", "pointer to memory unmapped at launch", "§4.1", ERROR),
    CodeInfo("MED013", "pointer restore on non-8-byte parameter", "§4.1", ERROR),
    # -- graph topology (§5, §2.5) --------------------------------------
    CodeInfo("MED020", "dependency edge references invalid node", "§5", ERROR),
    CodeInfo("MED021", "dependency edges contain a cycle", "§5", ERROR),
    CodeInfo("MED023", "first-layer node count out of bounds", "§5.2", ERROR),
    CodeInfo("MED024", "first-layer prefix differs across batches",
             "§5.2", ERROR),
    CodeInfo("MED025", "batch size above the model's or not its nodes'",
             "§5", ERROR),
    # -- kernel resolvability (§5) --------------------------------------
    CodeInfo("MED030", "unresolvable kernel name", "§5", ERROR),
    CodeInfo("MED031", "hidden kernel module has no trigger coverage",
             "§5.1", ERROR),
    CodeInfo("MED032", "invalid trigger plan", "§5.1", ERROR),
    CodeInfo("MED033", "kernel library table disagrees with catalog",
             "§5", ERROR),
    CodeInfo("MED034", "model unknown; kernel checks skipped", "§5", WARNING),
    # -- coverage (§4.3) ------------------------------------------------
    CodeInfo("MED041", "dumped contents for a non-permanent allocation",
             "§4.3", WARNING),
    CodeInfo("MED042", "permanent allocation has no dumped contents",
             "§4.3", ERROR),
    CodeInfo("MED043", "kernel parameter layout diverges across instances",
             "§4.1", WARNING),
    CodeInfo("MED044", "capture marker out of range", "§4.3", ERROR),
    # -- plan-level schedule verification (§7.3) ------------------------
    # Emitted by repro.analysis.planlint over LoadPlan stage graphs:
    # races between stages the lane scheduler may overlap, unresolvable
    # bindings, and structural/perf advisories.
    CodeInfo("PLN001", "write-write race between concurrent stages",
             "§7.3", ERROR),
    CodeInfo("PLN002", "read-write race between concurrent stages",
             "§7.3", ERROR),
    CodeInfo("PLN003", "background stage writes state an unordered "
             "foreground stage reads", "§7.3", ERROR),
    CodeInfo("PLN004", "stage action unresolvable against the action "
             "registry", "§7.3", ERROR),
    CodeInfo("PLN005", "contention partner stage not in the plan",
             "§7.3", ERROR),
    CodeInfo("PLN006", "contention penalty key unresolvable against the "
             "cost model", "§7.3", ERROR),
    CodeInfo("PLN007", "dead stage: writes nothing and nothing depends "
             "on it", "§7.3", WARNING),
    CodeInfo("PLN008", "redundant dependency already implied by another",
             "§7.3", WARNING),
    CodeInfo("PLN009", "lane bubble: stage serialized behind a "
             "later-ready lane neighbor", "§7.3", WARNING),
)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    message: str
    location: str = ""
    severity: str = ""      # defaults to the registry severity

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", CODES[self.code].severity)

    @property
    def info(self) -> CodeInfo:
        return CODES[self.code]

    def render(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return f"{self.code} [{self.severity}]{where}: {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {"code": self.code, "severity": self.severity,
                "location": self.location, "message": self.message,
                "title": self.info.title, "section": self.info.section}


@dataclass
class LintReport:
    """The aggregated result of one static analysis run."""

    model: str = ""
    gpu: str = ""
    passes: List[str] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    #: What was analyzed — "artifact" (default) or "plan"; only affects
    #: the human-readable clean line in :meth:`format_text`.
    subject: str = "artifact"

    def extend(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def clean(self) -> bool:
        """No diagnostics of any severity."""
        return not self.diagnostics

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 diagnostics found."""
        return 0 if self.clean else 1

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def format_text(self) -> str:
        head = (f"lint {self.model or '<unknown>'} on "
                f"{self.gpu or '<unknown>'}: "
                f"{len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s) "
                f"[passes: {', '.join(self.passes) or 'none'}]")
        lines = [head]
        lines.extend(d.render() for d in self.diagnostics)
        if self.clean:
            lines.append(f"{self.subject} is clean")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "model": self.model,
            "gpu": self.gpu,
            "passes": self.passes,
            "clean": self.clean,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "stats": self.stats,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }, indent=2)
