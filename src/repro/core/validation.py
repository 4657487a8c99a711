"""Output validation of restored CUDA graphs (paper §4).

The pointer-likeness heuristic can misclassify (rare address-shaped
constants), so Medusa "runs a model forwarding and compares the outputs of
the original and speculative versions of CUDA graphs".  We validate the
strongest version of that claim: a *fresh process* performs a full online
restore (new heap base, new ASLR layout), and the restored graph's replay
output is compared bit-for-bit against an eager forwarding in that same
process over identical inputs and KV state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.fastpath import eager_vs_replay
from repro.core.online import prepare_medusa_cold_start
from repro.errors import ValidationError
from repro.simgpu.kernels import PAYLOAD_DIM
from repro.simgpu.process import ExecutionMode


@dataclass
class ValidationReport:
    model: str
    batches_checked: List[int] = field(default_factory=list)
    max_abs_error: float = 0.0
    # Static-analysis findings (repro.analysis) that accompanied this run,
    # so runtime validation and lint results travel through one structure
    # (rendered via repro.reporting.tables.format_diagnostics).
    diagnostics: List = field(default_factory=list)
    # DegradationReport when the restore walked the ladder (see
    # repro.faults.ladder); None on a strict validation run.
    degradation: Optional[object] = None
    # The ColdStartReport from the restore this validation exercised, so
    # callers (``repro validate``) can print the per-stage schedule.
    cold_report: Optional[object] = None

    @property
    def passed(self) -> bool:
        return bool(self.batches_checked)

    @property
    def degraded(self) -> bool:
        return self.degradation is not None \
            and getattr(self.degradation, "degraded", False)


def make_input_ids(seed: int = 0) -> np.ndarray:
    """A deterministic token-id payload for validation forwardings."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, PAYLOAD_DIM,
                        size=(PAYLOAD_DIM, PAYLOAD_DIM)).astype(float)


def lint_before_restore(artifact, refuse: bool = True):
    """Statically verify ``artifact`` (see :mod:`repro.analysis`) and
    return the lint report.

    With ``refuse``, error-severity findings raise
    :class:`~repro.errors.ValidationError` naming their codes, so a
    corrupt artifact fails before a restore touches it.
    """
    from repro import analysis
    lint = analysis.lint_artifact(artifact)
    if refuse and lint.errors:
        raise ValidationError(
            f"{artifact.model_name}: static verification found "
            f"{len(lint.errors)} error(s) ({', '.join(lint.codes())}); "
            f"refusing to restore a corrupt artifact")
    return lint


def validate_restoration(config, artifact,
                         batches: Optional[Sequence[int]] = None,
                         seed: int = 77, cost_model=None,
                         policy=None) -> ValidationReport:
    """Restore in a fresh process and compare replay vs eager outputs.

    The zero-execution artifact verifier runs first; its diagnostics
    land on the report, and error-severity findings abort before the
    restore touches the artifact (a corrupt artifact should fail fast,
    not fault mid-replay).  The load plan the restore will execute is
    verified next (PLN0xx), against exactly the actions the engine and
    the restorer register.

    ``policy``: a :class:`repro.faults.DegradationPolicy`.  When set, lint
    errors no longer abort (the ladder is expected to survive them), the
    restore runs in degradation-ladder mode, and only the batch sizes the
    engine actually serves with a graph are output-checked; the ladder's
    :class:`DegradationReport` lands on ``report.degradation``.
    A fault plan in scope (``repro.faults.injecting``) fires in the
    restore, as in :func:`repro.core.online.medusa_cold_start`.

    Lint and the restore read the same packed tables, and the restore
    runs the plan that input gets (see
    :func:`repro.core.online.prepare_medusa_cold_start`).
    """
    report = ValidationReport(model=artifact.model_name)
    degraded_ok = policy is not None
    report.diagnostics = list(
        lint_before_restore(artifact, refuse=not degraded_ok).diagnostics)
    engine, restorer = prepare_medusa_cold_start(
        config, artifact, seed=seed, mode=ExecutionMode.COMPUTE,
        cost_model=cost_model, policy=policy)
    from repro.analysis.planlint import lint_plan
    from repro.engine.loadplan import ENGINE_STAGE_ACTIONS
    from repro.engine.strategies import Strategy, plan_for
    plan = engine.plan or plan_for(Strategy.MEDUSA)
    plan_lint = lint_plan(
        plan,
        known_actions=ENGINE_STAGE_ACTIONS + restorer.stage_action_names(),
        cost_model=cost_model)
    report.diagnostics.extend(plan_lint.diagnostics)
    if plan_lint.errors and not degraded_ok:
        raise ValidationError(
            f"{artifact.model_name}: load plan {plan.name!r} "
            f"failed static verification "
            f"({', '.join(d.code for d in plan_lint.errors)}); "
            f"refusing to execute an unsafe plan")
    cold = engine.cold_start(restorer=restorer)
    report.degradation = getattr(cold, "degradation", None)
    report.cold_report = cold
    check_batches = list(batches) if batches is not None else \
        [min(artifact.batches)]
    if degraded_ok:
        available = set(engine.capture_artifacts.execs) \
            if engine.capture_artifacts is not None else set()
        kept = [b for b in check_batches if b in available]
        check_batches = kept or sorted(available)[:1]
        if not check_batches:
            raise ValidationError(
                f"{artifact.model_name}: degraded restore left no "
                f"executable graphs to validate")
    for batch_size, actual, expected in eager_vs_replay(
            engine, check_batches, make_input_ids, make_input_ids(seed)):
        error = float(np.max(np.abs(actual - expected)))
        report.max_abs_error = max(report.max_abs_error, error)
        if not np.array_equal(actual, expected):
            raise ValidationError(
                f"{artifact.model_name} batch {batch_size}: restored graph "
                f"output diverges from eager forwarding "
                f"(max abs error {error:.3e}) — speculative pointer "
                f"classification is wrong somewhere")
        report.batches_checked.append(batch_size)
    return report
