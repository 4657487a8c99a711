"""Indirect index pointer analysis tests, including the Figure 6 scenario."""

import pytest

from repro.core.pointer_analysis import (
    POINTER_PREFIX,
    AllocationIndex,
    ParamRestore,
    analyze_graph_params,
    is_pointer_like,
)
from repro.core.trace import AllocTraceEvent, FreeTraceEvent, LaunchTraceEvent, Trace
from repro.errors import PointerAnalysisError

HEAP = 0x7F00_0000_0000


def alloc(seq, index, address, size=256, tag="act"):
    return AllocTraceEvent(seq=seq, alloc_index=index, address=address,
                           size=size, tag=tag)


def free(seq, index, address):
    return FreeTraceEvent(seq=seq, alloc_index=index, address=address,
                          pooled=True)


def launch(seq, values, sizes=None, name="k", captured=True):
    sizes = sizes or [8] * len(values)
    return LaunchTraceEvent(seq=seq, kernel_name=name, library="lib",
                            param_sizes=tuple(sizes),
                            param_values=tuple(values),
                            launch_dims=(), captured=captured)


class TestPointerLikeness:
    def test_heap_addresses_are_pointer_like(self):
        assert is_pointer_like(8, HEAP + 512)

    def test_small_constants_are_not(self):
        assert not is_pointer_like(8, 4096)
        assert not is_pointer_like(4, HEAP)   # 4-byte values never pointers

    def test_library_region_values_are_pointer_like(self):
        assert is_pointer_like(8, POINTER_PREFIX)


class TestBackwardMatching:
    def test_exact_match(self):
        trace = Trace(events=[alloc(0, 0, HEAP)])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP, before_seq=10) == (0, 0)

    def test_interior_match_preserves_offset(self):
        trace = Trace(events=[alloc(0, 0, HEAP, size=4096)])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP + 1000, before_seq=10) == (0, 1000)

    def test_no_match_before_allocation(self):
        trace = Trace(events=[alloc(5, 0, HEAP)])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP, before_seq=3) is None

    def test_figure6_alias_resolved_to_most_recent(self):
        """Figure 6: address A returned by allocations i and i+1; the kernel
        launched after the second allocation must bind to i+1."""
        trace = Trace(events=[
            alloc(0, 0, HEAP),          # i   -> returns A
            free(1, 0, HEAP),
            alloc(2, 1, HEAP),          # i+1 -> returns A again (LIFO)
            launch(3, [HEAP]),          # some_kernel(A)
        ])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP, before_seq=3) == (1, 0)

    def test_naive_match_takes_first_ever(self):
        """The strawman picks allocation i — the Figure 6 false positive."""
        trace = Trace(events=[
            alloc(0, 0, HEAP),
            free(1, 0, HEAP),
            alloc(2, 1, HEAP),
            launch(3, [HEAP]),
        ])
        index = AllocationIndex(trace)
        assert index.naive_match(HEAP) == (0, 0)

    def test_interior_pointer_at_exact_last_byte(self):
        """The final addressable byte of a buffer is still inside it."""
        trace = Trace(events=[alloc(0, 0, HEAP, size=4096)])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP + 4095, before_seq=10) == (0, 4095)

    def test_pointer_one_past_end_does_not_match(self):
        """base + size is one past the end — §4.1's "within the range of
        the allocated buffer" is half-open, so it must NOT resolve."""
        trace = Trace(events=[alloc(0, 0, HEAP, size=4096)])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP + 4096, before_seq=10) is None

    def test_three_lifo_generations_resolve_to_latest_live(self):
        """An address recycled across >= 3 LIFO pool generations binds each
        launch to the generation live at that launch — and a launch after
        the last generation picks it, not any of the earlier ones."""
        events = []
        seq = 0
        for generation in range(3):
            events.append(alloc(seq, generation, HEAP, size=1024))
            seq += 1
            events.append(free(seq, generation, HEAP))
            seq += 1
        events.append(alloc(seq, 3, HEAP, size=1024))   # generation 4, live
        launch_seq = seq + 1
        index = AllocationIndex(Trace(events=events))
        assert index.backward_match(HEAP, before_seq=launch_seq) == (3, 0)
        assert index.backward_match(HEAP + 100, before_seq=launch_seq) \
            == (3, 100)
        # Each earlier generation is still found by a launch inside its
        # own live window (generation g lives between seq 2g and 2g+1).
        for generation in range(3):
            assert index.backward_match(
                HEAP, before_seq=2 * generation + 1) == (generation, 0)

    def test_kernel_using_buffer_before_free(self):
        """A temp used by a kernel, then freed, then its address reused:
        the earlier launch still binds to the earlier allocation."""
        trace = Trace(events=[
            alloc(0, 0, HEAP),
            launch(1, [HEAP]),
            free(2, 0, HEAP),
            alloc(3, 1, HEAP),
            launch(4, [HEAP]),
        ])
        index = AllocationIndex(trace)
        assert index.backward_match(HEAP, before_seq=1) == (0, 0)
        assert index.backward_match(HEAP, before_seq=4) == (1, 0)


class TestAnalyzeGraphParams:
    def test_constants_and_pointers_split(self):
        trace = Trace(events=[
            alloc(0, 0, HEAP),
            launch(1, [HEAP, 42], sizes=[8, 4]),
        ])
        index = AllocationIndex(trace)
        restores, stats = analyze_graph_params(index, trace.launches())
        assert restores[0][0] == ParamRestore.pointer(0, 0)
        assert restores[0][1] == ParamRestore.const(42)
        assert stats.pointer_params == 1
        assert stats.const_params == 1

    def test_unmatched_pointer_raises(self):
        trace = Trace(events=[launch(0, [HEAP + 0x100])])
        index = AllocationIndex(trace)
        with pytest.raises(PointerAnalysisError):
            analyze_graph_params(index, trace.launches())

    def test_positional_vote_demotes_false_positive_constant(self):
        """An 8-byte constant that collides with a heap address in one
        instance of a kernel is demoted back to a constant by the positional
        majority vote (§4: rare false positives are corrected)."""
        events = [alloc(0, 0, HEAP, size=4096)]
        seq = 1
        launches = []
        # 9 instances where param 1 is an ordinary small constant...
        for _ in range(9):
            launches.append(launch(seq, [HEAP, 1234], name="k"))
            seq += 1
        # ...and 1 instance where the constant looks like a heap pointer.
        launches.append(launch(seq, [HEAP, HEAP + 64], name="k"))
        trace = Trace(events=events + launches)
        index = AllocationIndex(trace)
        restores, stats = analyze_graph_params(index, launches)
        assert stats.demoted_false_positives == 1
        assert restores[-1][1] == ParamRestore.const(HEAP + 64)

    def test_true_pointers_survive_vote(self):
        events = [alloc(0, 0, HEAP, size=4096)]
        launches = [launch(i + 1, [HEAP], name="k") for i in range(10)]
        trace = Trace(events=events + launches)
        index = AllocationIndex(trace)
        restores, stats = analyze_graph_params(index, launches)
        assert stats.demoted_false_positives == 0
        assert all(r[0].kind == "ptr" for r in restores)

    def test_naive_mode_uses_first_match(self):
        trace = Trace(events=[
            alloc(0, 0, HEAP),
            free(1, 0, HEAP),
            alloc(2, 1, HEAP),
            launch(3, [HEAP]),
        ])
        index = AllocationIndex(trace)
        good, _ = analyze_graph_params(index, trace.launches())
        bad, _ = analyze_graph_params(index, trace.launches(), naive=True)
        assert good[0][0].alloc_index == 1
        assert bad[0][0].alloc_index == 0   # the false positive


class _CountingEntries(list):
    """One address's allocation entries, counting every entry visited."""

    def __init__(self, entries, visits):
        super().__init__(entries)
        self._visits = visits

    def __iter__(self):
        for entry in super().__iter__():
            self._visits[0] += 1
            yield entry

    def __reversed__(self):
        for entry in super().__reversed__():
            self._visits[0] += 1
            yield entry


class TestIndexScaling:
    """The precomputed interval ends keep per-query work flat in trace size.

    The test wraps the index's per-address entry lists and counts the
    allocation entries ``backward_match`` visits — a deterministic
    stand-in for lookup cost.  10x the launches must not visit more
    entries per query; a lookup that rescans or re-derives allocation
    extents grows with the trace.
    """

    def _visits_per_query(self, n):
        events = []
        addresses = []
        for i in range(n):
            address = HEAP + i * 512
            addresses.append(address)
            events.append(alloc(i, i, address, size=256))
        for i in range(n):
            # Half exact hits, half interior (per-layer-KV-style) hits.
            offset = 0 if i % 2 == 0 else 128
            events.append(launch(n + i, [addresses[i] + offset]))
        index = AllocationIndex(Trace(events=events))
        visits = [0]
        index._by_address = {
            address: _CountingEntries(entries, visits)
            for address, entries in index._by_address.items()}
        for i in range(n):
            offset = 0 if i % 2 == 0 else 128
            match = index.backward_match(addresses[i] + offset, n + i)
            assert match == (i, offset)
        # Every query inspects at least its own allocation: a zero count
        # would mean the wrapper no longer sees the lookup.
        assert visits[0] >= n
        return visits[0] / n

    def test_ten_x_launches_scale_subquadratically(self):
        small = self._visits_per_query(500)
        large = self._visits_per_query(5000)
        assert large <= small, (
            f"10x launches visit {large:.2f} entries per query, "
            f"up from {small:.2f}")
