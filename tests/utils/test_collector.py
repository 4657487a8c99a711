"""``cyclic_gc_paused``: pause the collector, then promote the heap."""

import gc

import pytest

from repro.utils.collector import cyclic_gc_paused


class _Marker:
    """A gc-tracked object the tests can find in a generation."""


@pytest.fixture(autouse=True)
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _in_generation(obj, generation: int) -> bool:
    return any(candidate is obj
               for candidate in gc.get_objects(generation=generation))


def test_collector_is_off_inside_and_on_after():
    with cyclic_gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_exit_thaws_everything_and_resets_the_young_count():
    with cyclic_gc_paused():
        built = [_Marker() for _ in range(1000)]
    assert gc.get_freeze_count() == 0
    assert gc.get_count()[0] < 50
    assert len(built) == 1000


def test_objects_built_in_the_body_land_in_the_oldest_generation():
    with cyclic_gc_paused():
        marker = _Marker()
    assert _in_generation(marker, 2)
    assert not _in_generation(marker, 0)


def test_promoted_cycles_are_still_collectable():
    with cyclic_gc_paused():
        cycle = [_Marker()]
        cycle.append(cycle)
    del cycle
    assert gc.collect() >= 2


def test_a_callers_frozen_objects_stay_frozen():
    frozen = _Marker()
    gc.freeze()
    try:
        count = gc.get_freeze_count()
        assert count > 0
        with cyclic_gc_paused():
            built = _Marker()
        assert gc.isenabled()
        assert gc.get_freeze_count() == count
        assert not _in_generation(frozen, 2)
        assert not _in_generation(built, 2)
    finally:
        gc.unfreeze()


def test_collector_state_restored_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with cyclic_gc_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_nested_pause_is_a_no_op():
    with cyclic_gc_paused():
        with cyclic_gc_paused():
            inner = _Marker()
        assert not gc.isenabled()
        assert not _in_generation(inner, 2)
    assert gc.isenabled()
    assert _in_generation(inner, 2)


def test_disabled_collector_stays_disabled_and_nothing_moves():
    gc.disable()
    with cyclic_gc_paused():
        marker = _Marker()
    assert not gc.isenabled()
    assert not _in_generation(marker, 2)
