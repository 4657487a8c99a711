"""The fault seam: the :class:`~repro.faults.FaultInjector` in scope.

Chaos tests put an injector in scope with ``with
repro.faults.injecting(fi):``; the two layers that own fault points read
it once each, when they are built: :class:`repro.simgpu.driver.CudaDriver`
(symbol resolution) and :class:`repro.core.fastpath.VectorizedRestorer`
(graph tables, allocation replay, permanent dumps, trigger launches).
Outside every scope the seam is off.

This module imports only the standard library: ``repro.faults`` imports
the driver, so the driver cannot import that package.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

_INJECTOR: ContextVar = ContextVar("fault_injector", default=None)


@contextlib.contextmanager
def injecting(fi):
    """Put the fault injector ``fi`` in scope for the ``with`` body.

    Every driver and restorer built in the body fires its faults; the
    previous scope (none, or an enclosing ``injecting``) comes back on
    exit, also when the body raises.  A ``ContextVar`` is not inherited
    by threads, executor workers included, so a driver or restorer built
    on another thread sees no injector.  No fault point runs on another
    thread: a restore, its chunk reads included, runs on its caller's.
    """
    token = _INJECTOR.set(fi)
    try:
        yield
    finally:
        _INJECTOR.reset(token)


def active_injector():
    """The injector in scope, or None when there is none or its plan is
    empty (an empty plan counts as no injector)."""
    injector = _INJECTOR.get()
    return injector if injector is not None and injector.active else None
