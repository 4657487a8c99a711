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
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.artifact import MaterializedModel
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


def validate_restoration(config, artifact: MaterializedModel,
                         batches: Optional[Sequence[int]] = None,
                         seed: int = 77, cost_model=None,
                         kv_config=None,
                         static_lint: bool = True,
                         injector=None,
                         policy=None) -> ValidationReport:
    """Restore in a fresh process and compare replay vs eager outputs.

    ``static_lint``: run the zero-execution artifact verifier first; its
    diagnostics land on the report, and error-severity findings abort
    before the restore touches the artifact (a corrupt artifact should
    fail fast, not fault mid-replay).

    ``policy``: a :class:`repro.faults.DegradationPolicy`.  When set, lint
    errors no longer abort (the ladder is expected to survive them), the
    restore runs in degradation-ladder mode, and only the batch sizes the
    engine actually serves with a graph are output-checked; the ladder's
    :class:`DegradationReport` lands on ``report.degradation``.
    ``injector`` threads a :class:`repro.faults.FaultInjector` through
    (chaos testing).

    ``artifact`` may be a :class:`repro.core.binfmt.LazyArtifact`; the
    restore then runs the plan that input gets (see
    :func:`repro.core.online.prepare_medusa_cold_start`), and static lint
    checks a materialized copy.
    """
    report = ValidationReport(model=artifact.model_name)
    degraded_ok = policy is not None
    if static_lint:
        from repro.analysis import lint_artifact
        from repro.core.binfmt import LazyArtifact
        lint_target = artifact.materialize() \
            if isinstance(artifact, LazyArtifact) else artifact
        lint = lint_artifact(lint_target)
        report.diagnostics = list(lint.diagnostics)
        if lint.errors and not degraded_ok:
            raise ValidationError(
                f"{artifact.model_name}: static verification found "
                f"{len(lint.errors)} error(s) ({', '.join(lint.codes())}); "
                f"refusing to restore a corrupt artifact")
    engine, restorer = prepare_medusa_cold_start(
        config, artifact, seed=seed, mode=ExecutionMode.COMPUTE,
        cost_model=cost_model, kv_config=kv_config,
        injector=injector, policy=policy)
    if static_lint:
        # Plan-lint prepass (PLN0xx): verify the load plan this restore
        # will execute, with PLN004 bindings resolved against exactly the
        # actions the engine and the restorer register.
        from repro.analysis.planlint import lint_plan
        from repro.engine.engine import ENGINE_STAGE_ACTIONS
        from repro.engine.strategies import Strategy, plan_for
        plan = engine.plan or plan_for(Strategy.MEDUSA)
        plan_lint = lint_plan(
            plan,
            known_actions=ENGINE_STAGE_ACTIONS
            + restorer.stage_action_names(),
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
        [min(artifact.graphs)]
    if degraded_ok:
        available = set(engine.capture_artifacts.execs) \
            if engine.capture_artifacts is not None else set()
        kept = [b for b in check_batches if b in available]
        check_batches = kept or sorted(available)[:1]
        if not check_batches:
            raise ValidationError(
                f"{artifact.model_name}: degraded restore left no "
                f"executable graphs to validate")
    ctx = engine.serving_context()
    # Settle one-time eager-path state (cuBLAS-style workspace setup) before
    # the first snapshot, so snapshot/restore cycles preserve it.
    ctx.input_buffer.write(make_input_ids(seed=seed))
    engine.model.forward(min(check_batches), min(check_batches), ctx)
    for batch_size in check_batches:
        ctx.input_buffer.write(make_input_ids(seed=batch_size))
        # Eager reference under a frozen state snapshot...
        engine.reset_kv_state()
        snapshot = engine.process.snapshot_payloads()
        engine.model.forward(batch_size, batch_size, ctx)
        expected = ctx.output_buffer.read().copy()
        # ...then the restored graph's replay from the same state.
        engine.process.restore_payloads(snapshot)
        engine.capture_artifacts.execs[batch_size].replay()
        actual = ctx.output_buffer.read()
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
