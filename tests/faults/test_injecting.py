"""The fault seam's contract: ``with injecting(fi):`` scopes one injector.

The driver and the restorer read the injector in scope when they are
built; these tests pin what "in scope" means (no scope, an exception
inside one, nesting, other threads) and that the ``validate_restoration``
entry, which ``repro validate --degraded-ok`` takes, faults exactly as
``medusa_cold_start`` does.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.core.online import medusa_cold_start, prepare_medusa_cold_start
from repro.core.validation import validate_restoration
from repro.errors import OutOfMemoryError
from repro.faults import (
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PHASE_KV,
    injecting,
)
from repro.faultscope import active_injector
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.faults.test_fault_matrix import FAULT_CASES


def _injector(seed, kind=FaultKind.REPLAY_OOM, phase=PHASE_KV):
    return FaultInjector(FaultPlan(seed=seed, faults=(
        FaultSpec(kind=kind, phase=phase),)))


def test_no_scope_means_no_injector(tiny2l_artifact):
    assert active_injector() is None
    engine, restorer = prepare_medusa_cold_start(
        "Tiny-2L", tiny2l_artifact[0], cost_model=tiny_cost_model())
    assert engine.process.driver.injector is None
    assert restorer.injector is None


def test_scope_resets_when_the_body_raises(tiny2l_artifact, chaos_seed):
    """A replay OOM with no DegradationPolicy fails the restore; the
    scope and the paused collector both end with it."""
    injector = _injector(chaos_seed)
    with pytest.raises(OutOfMemoryError), injecting(injector):
        assert active_injector() is injector
        medusa_cold_start("Tiny-2L", tiny2l_artifact[0], seed=3,
                          mode=ExecutionMode.COMPUTE,
                          cost_model=tiny_cost_model())
    assert injector.fired
    assert active_injector() is None
    assert gc.isenabled()


def test_nested_scope_restores_the_outer_one(chaos_seed):
    outer = _injector(chaos_seed)
    inner = _injector(chaos_seed, FaultKind.TRIGGER_TIMEOUT, phase="")
    empty = FaultInjector(FaultPlan(seed=chaos_seed, faults=()))
    with injecting(outer):
        with injecting(inner):
            assert active_injector() is inner
        assert active_injector() is outer
        with injecting(empty):      # an empty plan counts as none
            assert active_injector() is None
        assert active_injector() is outer
    assert active_injector() is None


def test_a_thread_started_in_scope_sees_none(chaos_seed):
    seen = []
    with injecting(_injector(chaos_seed)):
        thread = threading.Thread(
            target=lambda: seen.append(active_injector()))
        thread.start()
        thread.join()
    assert seen == [None]


@pytest.mark.parametrize("case_id,spec,natural",
                         FAULT_CASES, ids=[c for c, _, _ in FAULT_CASES])
def test_validate_restoration_lands_on_the_cold_start_rung(
        tiny2l_artifact, chaos_seed, case_id, spec, natural):
    """Each fault kind of the default-policy row, through the validation
    entry: the same rung and the same fired faults as a cold start, and
    the outputs it checks match the eager oracle."""
    artifact, _ = tiny2l_artifact
    runs = []
    for entry in ("cold start", "validation"):
        injector = FaultInjector(FaultPlan(seed=chaos_seed, faults=(spec,)))
        with injecting(injector):
            if entry == "cold start":
                _, report = medusa_cold_start(
                    "Tiny-2L", artifact, seed=3, mode=ExecutionMode.COMPUTE,
                    cost_model=tiny_cost_model(),
                    policy=DegradationPolicy())
                degradation = report.degradation
            else:
                result = validate_restoration(
                    "Tiny-2L", artifact, seed=3,
                    cost_model=tiny_cost_model(),
                    policy=DegradationPolicy())
                assert result.passed
                degradation = result.degradation
        runs.append((degradation.rung, injector.fired))
    assert runs[0][0] is natural
    assert runs[1] == runs[0]
    assert runs[0][1], f"fault {spec.kind.value} never fired"
