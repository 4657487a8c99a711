"""The graceful-degradation ladder for Medusa restoration.

Real serverless stacks keep serving when the fast path breaks (ServerlessLLM
falls through its loading tiers; template systems fall back to a plain
start).  The restoration equivalent is a ladder of rungs, each trading more
cold-start latency for less trust in the artifact:

=========== ================================================================
rung        meaning
=========== ================================================================
FULL        every graph restored from the artifact (the normal restore)
PARTIAL     poisoned batch-size graphs dropped; served via batch padding
RECAPTURE   poisoned graphs re-captured live (restored KV kept)
EAGER       restoration abandoned; vanilla profile + capture cold start
=========== ================================================================

Every step down is recorded as a :class:`LadderStep` and surfaces as a
distinct LoadPlan stage, so the Timeline, the CLI breakdown table, and the
Chrome trace all show *what* degraded and what it cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.lanes import GPU_COMPUTE
from repro.engine.loadplan import (
    GRAPHS,
    KV_STATE,
    STRUCTURE_STATE,
    WEIGHTS_STATE,
    PlanStage,
)

#: Timeline stage names for degradation work (appended after the restore
#: tail; see ``repro.engine.loadplan.append_stages``).
DEGRADE_KV_PROFILE = "degrade_kv_profile"
RESTORE_VERIFY = "restore_verify"
DEGRADE_PARTIAL = "degrade_partial"
DEGRADE_RECAPTURE = "degrade_recapture"
DEGRADE_EAGER = "degrade_eager_capture"

#: Every ladder stage a cold start may append, worst-case order, with its
#: lane and effects: the degraded-variant universe ``repro lint-plan``
#: verifies per plan.  ``append_stages`` sets each one's ``deps``.
DEGRADED_LADDER_STAGES = (
    PlanStage(DEGRADE_KV_PROFILE, GPU_COMPUTE,
              reads=(STRUCTURE_STATE,), writes=(KV_STATE,)),
    PlanStage(RESTORE_VERIFY, GPU_COMPUTE,
              reads=(KV_STATE, WEIGHTS_STATE, GRAPHS), writes=(GRAPHS,)),
    PlanStage(DEGRADE_PARTIAL, GPU_COMPUTE,
              reads=(GRAPHS,), writes=(GRAPHS,)),
    PlanStage(DEGRADE_RECAPTURE, GPU_COMPUTE,
              reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE),
              writes=(GRAPHS,)),
    PlanStage(DEGRADE_EAGER, GPU_COMPUTE,
              reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE),
              writes=(GRAPHS,)),
)
_LADDER_STAGE = {stage.name: stage for stage in DEGRADED_LADDER_STAGES}


class Rung(enum.IntEnum):
    """Ladder rungs, ordered from best (FULL) to worst (EAGER)."""

    FULL = 0
    PARTIAL = 1
    RECAPTURE = 2
    EAGER = 3

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class DegradationPolicy:
    """How far down the ladder a cold start may recover.

    ``verify_dumps`` / ``verify_outputs``: None means *auto* — verify only
    when a fault plan is in scope, so a policy attached to a clean restore
    leaves its timeline byte-identical to the policy-less path.
    ``verify_outputs`` additionally requires COMPUTE mode (the oracle is a
    real eager forwarding).
    """

    allow_partial: bool = True
    allow_recapture: bool = True
    verify_dumps: Optional[bool] = None
    verify_outputs: Optional[bool] = None


@dataclass
class LadderStep:
    """One recorded descent (or recovery action) on the ladder."""

    rung: Rung
    stage: str                      # the timeline stage charging its cost
    reason: str
    batches: Tuple[int, ...] = ()
    duration: float = 0.0

    def describe(self) -> str:
        suffix = f" (batches {list(self.batches)})" if self.batches else ""
        return f"{self.rung.label}: {self.reason}{suffix}"


@dataclass
class DegradationReport:
    """What one cold start's ladder actually did."""

    steps: List[LadderStep] = field(default_factory=list)
    #: Human-readable descriptions of the faults that were caught.
    failures: List[str] = field(default_factory=list)

    @property
    def rung(self) -> Rung:
        return max((step.rung for step in self.steps), default=Rung.FULL)

    @property
    def rung_name(self) -> str:
        return self.rung.label

    @property
    def degraded(self) -> bool:
        return self.rung is not Rung.FULL

    def record(self, step: LadderStep) -> None:
        self.steps.append(step)

    def note_failure(self, site: str, exc: BaseException) -> None:
        self.failures.append(f"{site}: {type(exc).__name__}: {exc}")

    def extra_stages(self) -> List[Tuple[PlanStage, float]]:
        """(ladder stage, duration) pairs to append to the LoadPlan."""
        return [(_LADDER_STAGE[step.stage], step.duration)
                for step in self.steps if step.stage]

    def describe(self) -> str:
        if not self.degraded:
            return "full restore (no degradation)"
        lines = [f"degraded cold start — rung {self.rung_name}"]
        lines += [f"  - {step.describe()}" for step in self.steps]
        lines += [f"  ! {failure}" for failure in self.failures]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "rung": self.rung_name,
            "degraded": self.degraded,
            "steps": [{"rung": s.rung.label, "stage": s.stage,
                       "reason": s.reason, "batches": list(s.batches),
                       "duration": s.duration} for s in self.steps],
            "failures": list(self.failures),
        }
