"""Property test: no FaultPlan may yield a corrupt engine.

Whatever random combination of faults a plan throws at the restore, the
ladder guarantees a cold start that (a) completes without an exception and
(b) leaves an engine whose every graph replays to the exact output of an
eager forwarding.  Degrading is allowed; serving wrong bits never is.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.online import medusa_cold_start
from repro.faults import (
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

_REPLAY_KINDS = (FaultKind.REPLAY_DIVERGENCE, FaultKind.REPLAY_OOM)


@st.composite
def fault_specs(draw) -> FaultSpec:
    kind = draw(st.sampled_from(sorted(FaultKind, key=lambda k: k.value)))
    phase = ""
    if kind in _REPLAY_KINDS:
        phase = draw(st.sampled_from(["", PHASE_KV, PHASE_WARMUP]))
    return FaultSpec(kind=kind, phase=phase)


fault_plans = st.builds(
    lambda seed, faults: FaultPlan(seed=seed, faults=tuple(faults)),
    st.integers(min_value=0, max_value=2**16),
    st.lists(fault_specs(), min_size=0, max_size=3),
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=fault_plans)
def test_random_fault_plans_never_corrupt_the_engine(tiny2l_artifact, plan):
    artifact, _ = tiny2l_artifact
    injector = FaultInjector(plan)
    with injecting(injector):
        engine, report = medusa_cold_start(
            "Tiny-2L", artifact, seed=3, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model(), policy=DegradationPolicy())
    # Restored output always matches the eager oracle — the core guarantee.
    assert_serves_correctly(engine, artifact)
    degradation = report.degradation
    if degradation is not None:
        assert degradation.rung in tuple(Rung)
        # Every recorded step names a stage or a failure with a reason.
        for step in degradation.steps:
            assert step.reason
    if plan.is_empty:
        assert degradation is None and not injector.fired


@settings(max_examples=15, deadline=None)
@given(plan=fault_plans)
def test_fault_resolution_is_deterministic(tiny2l_artifact, plan):
    """Same (plan, artifact) → same pinned fault targets, every time."""
    artifact, _ = tiny2l_artifact
    first = FaultInjector(plan)
    second = FaultInjector(plan)
    first.prepare(artifact)
    second.prepare(artifact)
    pinned = [(f.kind.value, f.batch_size, f.event_index, f.kernel_name,
               f.alloc_index) for f in first._resolved]
    assert pinned == [(f.kind.value, f.batch_size, f.event_index,
                       f.kernel_name, f.alloc_index)
                      for f in second._resolved]
