"""Pausing Python's cyclic garbage collector around a bulk-building phase."""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def cyclic_gc_paused():
    """Pause the cyclic garbage collector for the ``with`` body.

    Meant for phases that build many long-lived objects and drop (almost)
    no reference cycle before they return: every collection during such a
    phase walks a growing heap and frees nothing.  Refcounting still frees
    everything acyclic.  The collector's previous state is restored on
    exit, also when the body raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
