"""Pausing Python's cyclic garbage collector around a bulk-building phase."""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def cyclic_gc_paused():
    """Pause the cyclic garbage collector for the ``with`` body.

    Meant for phases that build many long-lived objects and drop no
    reference cycle before they return: every collection during such a
    phase walks a growing heap and frees nothing.  Refcounting still frees
    everything acyclic.

    On exit the collector is re-enabled as ``gc.freeze(); gc.enable();
    gc.unfreeze()``: every tracked object, the caller's included, moves to
    the oldest generation without being scanned, and the young-generation
    count restarts at 0.  So the collection that would otherwise run right
    after the pause, and walk everything the phase built, never happens.
    Nothing is exempt from collection for good: the promoted objects are
    still collectable by the next full collection (``gc.collect()`` or the
    collector's own oldest-generation pass).

    A caller that has frozen objects of its own (``gc.get_freeze_count()
    > 0`` on entry) keeps its frozen set: the collector is then only
    re-enabled, since ``gc.unfreeze()`` would thaw that set too.  A pause
    nested in another pause, or entered with the collector already off,
    changes nothing.  The collector's previous state is restored on exit,
    also when the body raises.
    """
    was_enabled = gc.isenabled()
    promote = was_enabled and gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.enable()
            gc.unfreeze()
        elif was_enabled:
            gc.enable()
