"""Deterministic fault injection + the restoration degradation ladder.

See :mod:`repro.faults.plan` (what to inject), :mod:`repro.faults.injector`
(where it fires), :mod:`repro.faultscope` (``injecting``, which puts an
injector in scope), and :mod:`repro.faults.ladder` (how the cold start
recovers).
"""

from repro.faults.injector import FaultInjector
from repro.faults.ladder import (
    DEGRADE_EAGER,
    DEGRADE_KV_PROFILE,
    DEGRADE_PARTIAL,
    DEGRADE_RECAPTURE,
    RESTORE_VERIFY,
    DegradationPolicy,
    DegradationReport,
    LadderStep,
    Rung,
)
from repro.faults.plan import (
    PHASE_KV,
    PHASE_WARMUP,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.faultscope import injecting

__all__ = [
    "DEGRADE_EAGER",
    "DEGRADE_KV_PROFILE",
    "DEGRADE_PARTIAL",
    "DEGRADE_RECAPTURE",
    "RESTORE_VERIFY",
    "DegradationPolicy",
    "DegradationReport",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "LadderStep",
    "PHASE_KV",
    "PHASE_WARMUP",
    "Rung",
    "injecting",
]
