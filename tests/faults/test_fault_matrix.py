"""The fault matrix: every fault type × every ladder rung policy.

Each cell injects one fault into a Tiny-2L restore (COMPUTE mode) under one
:class:`DegradationPolicy` and asserts the three ladder guarantees:

1. the cold start completes on the expected rung (the fault's natural rung,
   clamped downward by what the policy forbids),
2. the engine still serves every batch size with outputs bit-identical to
   an eager forwarding (the oracle), and
3. the report and timeline *name* the rung — its degradation stage appears
   as a scheduled LoadPlan stage.
"""

from __future__ import annotations

import pytest

from repro.core.binfmt import save_binary
from repro.core.chunks import open_binary
from repro.core.online import medusa_cold_start
from repro.core.store import ArtifactStore
from repro.faults import (
    DEGRADE_EAGER,
    DEGRADE_PARTIAL,
    DEGRADE_RECAPTURE,
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PHASE_KV,
    PHASE_WARMUP,
    Rung,
    injecting,
)
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.faults.conftest import assert_serves_correctly

#: (case id, fault spec, natural rung under the default policy).
FAULT_CASES = [
    ("corruption", FaultSpec(kind=FaultKind.ARTIFACT_CORRUPTION),
     Rung.PARTIAL),
    ("divergence-warmup", FaultSpec(kind=FaultKind.REPLAY_DIVERGENCE,
                                    phase=PHASE_WARMUP), Rung.RECAPTURE),
    ("divergence-kv", FaultSpec(kind=FaultKind.REPLAY_DIVERGENCE,
                                phase=PHASE_KV), Rung.EAGER),
    ("oom-warmup", FaultSpec(kind=FaultKind.REPLAY_OOM,
                             phase=PHASE_WARMUP), Rung.RECAPTURE),
    ("oom-kv", FaultSpec(kind=FaultKind.REPLAY_OOM, phase=PHASE_KV),
     Rung.EAGER),
    ("hidden-kernel", FaultSpec(kind=FaultKind.HIDDEN_KERNEL_UNRESOLVED),
     Rung.RECAPTURE),
    ("bitflip", FaultSpec(kind=FaultKind.PERMANENT_DUMP_BITFLIP),
     Rung.RECAPTURE),
    ("trigger-timeout", FaultSpec(kind=FaultKind.TRIGGER_TIMEOUT),
     Rung.RECAPTURE),
]

POLICIES = [
    ("default", DegradationPolicy()),
    ("no-partial", DegradationPolicy(allow_partial=False)),
    ("eager-only", DegradationPolicy(allow_partial=False,
                                     allow_recapture=False)),
]

#: The timeline stage that must appear for each degraded rung.
RUNG_STAGE = {
    Rung.PARTIAL: DEGRADE_PARTIAL,
    Rung.RECAPTURE: DEGRADE_RECAPTURE,
    Rung.EAGER: DEGRADE_EAGER,
}


def expected_rung(natural: Rung, policy: DegradationPolicy) -> Rung:
    """Clamp a fault's natural rung by what the policy forbids."""
    rung = natural
    if rung is Rung.PARTIAL and not policy.allow_partial:
        rung = Rung.RECAPTURE
    if rung is Rung.RECAPTURE and not policy.allow_recapture:
        rung = Rung.EAGER
    return rung


def run_faulted(artifact, spec, policy, chaos_seed):
    injector = FaultInjector(FaultPlan(seed=chaos_seed, faults=(spec,)))
    with injecting(injector):
        engine, report = medusa_cold_start(
            "Tiny-2L", artifact, seed=3, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model(), policy=policy)
    assert injector.fired, f"fault {spec.kind.value} never fired"
    return engine, report


@pytest.mark.parametrize("policy_id,policy", POLICIES,
                         ids=[p for p, _ in POLICIES])
@pytest.mark.parametrize("case_id,spec,natural",
                         FAULT_CASES, ids=[c for c, _, _ in FAULT_CASES])
def test_fault_matrix(tiny2l_artifact, chaos_seed, case_id, spec, natural,
                      policy_id, policy):
    artifact, _ = tiny2l_artifact
    engine, report = run_faulted(artifact, spec, policy, chaos_seed)

    degradation = report.degradation
    assert degradation is not None, "degraded cold start reported no ladder"
    rung = expected_rung(natural, policy)
    assert degradation.rung is rung, (
        f"{case_id}/{policy_id}: expected rung {rung.label}, landed on "
        f"{degradation.rung_name}:\n{degradation.describe()}")
    assert degradation.rung_name == rung.label

    # The rung's degradation stage is a real scheduled timeline stage.
    stage_names = {stage.name for stage in report.timeline.stages}
    assert RUNG_STAGE[rung] in stage_names, (
        f"{case_id}/{policy_id}: timeline {sorted(stage_names)} does not "
        f"name stage {RUNG_STAGE[rung]}")
    placed = report.timeline.stage(RUNG_STAGE[rung])
    assert placed.end <= report.timeline.total + 1e-9

    # The engine still serves — correctly — on whatever rung it landed.
    assert_serves_correctly(engine, artifact)


#: The plan each input kind runs, with or without a policy.
INPUT_PLANS = {"eager": "medusa", "lazy": "medusa-pipelined",
               "chunked": "medusa-chunked"}


@pytest.fixture(scope="module")
def tiny2l_inputs(tiny2l_artifact, tmp_path_factory):
    """Openers for the in-memory, file and store forms of the artifact."""
    artifact, _ = tiny2l_artifact
    workdir = tmp_path_factory.mktemp("fault-inputs")
    path = workdir / "tiny2l.medusa"
    save_binary(artifact, path)
    store = ArtifactStore(workdir / "store")
    store.put(artifact)
    return {
        "eager": lambda: artifact,
        "lazy": lambda: open_binary(path),
        "chunked": lambda: store.get_lazy(artifact.gpu_name,
                                          artifact.model_name),
    }


@pytest.mark.parametrize("input_kind", ["lazy", "chunked"])
@pytest.mark.parametrize("policy_id,policy", POLICIES,
                         ids=[p for p, _ in POLICIES])
@pytest.mark.parametrize("case_id,spec,natural",
                         FAULT_CASES, ids=[c for c, _, _ in FAULT_CASES])
def test_default_row_on_lazy_inputs(tiny2l_artifact, tiny2l_inputs,
                                    chaos_seed, case_id, spec, natural,
                                    policy_id, policy, input_kind):
    """Every policy row over file and store inputs runs the ladder on
    their own plan and lands on the eager input's rung, with the same
    faults fired at the same sites and outputs equal to the oracle."""
    artifact, _ = tiny2l_artifact
    runs = []
    for kind in ("eager", input_kind):
        injector = FaultInjector(FaultPlan(seed=chaos_seed, faults=(spec,)))
        with injecting(injector):
            engine, report = medusa_cold_start(
                "Tiny-2L", tiny2l_inputs[kind](), seed=3,
                mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model(),
                policy=policy)
        assert report.timeline.plan == f"{INPUT_PLANS[kind]}+degraded"
        assert_serves_correctly(engine, artifact)
        runs.append((report.degradation.rung, injector.fired))
    assert runs[0][0] is expected_rung(natural, policy)
    assert runs[1] == runs[0]
    assert runs[0][1], f"fault {spec.kind.value} never fired"


def test_degradation_costs_latency(tiny2l_artifact, chaos_seed):
    """A degraded cold start is slower than a clean one — the ladder trades
    latency for availability, and the timeline accounts for the cost."""
    artifact, _ = tiny2l_artifact
    _, clean = medusa_cold_start("Tiny-2L", artifact, seed=3,
                                 mode=ExecutionMode.COMPUTE,
                                 cost_model=tiny_cost_model())
    _, degraded = run_faulted(
        artifact, FaultSpec(kind=FaultKind.REPLAY_OOM, phase=PHASE_KV),
        DegradationPolicy(), chaos_seed)
    assert degraded.loading_time > clean.loading_time


@pytest.mark.parametrize("input_kind", sorted(INPUT_PLANS))
class TestEmptyPlanIsByteIdentical:
    """A policy with no faults must not perturb the restore at all, on
    any input's plan."""

    def test_inactive_injector_and_policy_do_nothing(self, tiny2l_inputs,
                                                     input_kind):
        _, baseline = medusa_cold_start(
            "Tiny-2L", tiny2l_inputs[input_kind](), seed=5,
            mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model())
        injector = FaultInjector(FaultPlan(seed=1, faults=()))
        with injecting(injector):
            _, chaotic = medusa_cold_start(
                "Tiny-2L", tiny2l_inputs[input_kind](), seed=5,
                mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model(),
                policy=DegradationPolicy())
        assert chaotic.timeline.plan == INPUT_PLANS[input_kind]
        assert chaotic.degradation is None
        assert not injector.fired
        assert baseline.stage_durations == chaotic.stage_durations
        assert baseline.loading_time == chaotic.loading_time
        assert [(s.name, s.start, s.end, s.lane, s.critical)
                for s in baseline.timeline.stages] == \
               [(s.name, s.start, s.end, s.lane, s.critical)
                for s in chaotic.timeline.stages]

    def test_clean_restore_with_policy_stays_on_full_rung(
            self, tiny2l_artifact, tiny2l_inputs, input_kind):
        artifact, _ = tiny2l_artifact
        engine, report = medusa_cold_start(
            "Tiny-2L", tiny2l_inputs[input_kind](), seed=5,
            mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model(),
            policy=DegradationPolicy())
        assert report.timeline.plan == INPUT_PLANS[input_kind]
        assert report.degradation is None
        assert_serves_correctly(engine, artifact)
