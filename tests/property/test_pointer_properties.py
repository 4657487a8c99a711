"""Property-based tests of the pointer analysis (hypothesis).

The central invariant (DESIGN.md §6): for any allocation/free/launch
program, backward matching binds each launch parameter to the allocation
that was live at launch time — never to a deallocated alias.
"""

from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.pointer_analysis import (
    POINTER_CODE,
    POINTER_PREFIX,
    AllocationIndex,
    AnalysisStats,
    analyze_graph_params,
    is_pointer_like,
)
from repro.core.trace import (
    AllocTraceEvent,
    FreeTraceEvent,
    LaunchTraceEvent,
    Trace,
)
from repro.errors import PointerAnalysisError

HEAP = 0x7F00_0000_0000
SIZE = 256

# Programs over a small pool of address slots: each slot can be allocated,
# freed, and re-allocated (aliasing), with launches referencing live slots.
_program = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 5)),
        st.tuples(st.just("free"), st.integers(0, 5)),
        st.tuples(st.just("launch"), st.integers(0, 5)),
    ),
    min_size=1, max_size=50,
)


def _build_trace(program):
    """Interpret the program; returns (trace, ground_truth).

    ground_truth: list of (launch_seq, slot, expected_alloc_index).
    """
    events = []
    seq = 0
    alloc_index = 0
    live = {}      # slot -> alloc_index currently live there
    truth = []
    for op, slot in program:
        address = HEAP + slot * SIZE
        if op == "alloc" and slot not in live:
            events.append(AllocTraceEvent(seq=seq, alloc_index=alloc_index,
                                          address=address, size=SIZE,
                                          tag="t"))
            live[slot] = alloc_index
            alloc_index += 1
            seq += 1
        elif op == "free" and slot in live:
            events.append(FreeTraceEvent(seq=seq,
                                         alloc_index=live.pop(slot),
                                         address=address, pooled=True))
            seq += 1
        elif op == "launch" and slot in live:
            events.append(LaunchTraceEvent(
                seq=seq, kernel_name="k", library="l",
                param_sizes=(8,), param_values=(address,),
                launch_dims=(), captured=True))
            truth.append((seq, slot, live[slot]))
            seq += 1
    return Trace(events=events), truth


class TestBackwardMatchingProperty:
    @settings(max_examples=200, deadline=None)
    @given(program=_program)
    def test_matches_the_live_allocation(self, program):
        trace, truth = _build_trace(program)
        if not truth:
            return   # program produced no launches; vacuously true
        index = AllocationIndex(trace)
        for launch_seq, slot, expected in truth:
            address = HEAP + slot * SIZE
            match = index.backward_match(address, before_seq=launch_seq)
            assert match is not None
            assert match == (expected, 0)

    @settings(max_examples=200, deadline=None)
    @given(program=_program, offset=st.integers(1, SIZE - 1))
    def test_interior_pointers_match_with_offset(self, program, offset):
        trace, truth = _build_trace(program)
        if not truth:
            return
        index = AllocationIndex(trace)
        launch_seq, slot, expected = truth[-1]
        address = HEAP + slot * SIZE + offset
        match = index.backward_match(address, before_seq=launch_seq)
        assert match == (expected, offset)

    @settings(max_examples=100, deadline=None)
    @given(program=_program)
    def test_naive_never_binds_to_later_allocation(self, program):
        """Naive matching errs towards *earlier* allocations, never later
        ones — the direction Figure 6's false positive takes."""
        trace, truth = _build_trace(program)
        if not truth:
            return
        index = AllocationIndex(trace)
        for launch_seq, slot, expected in truth:
            address = HEAP + slot * SIZE
            naive = index.naive_match(address)
            assert naive is not None
            assert naive[0] <= expected


# ---------------------------------------------------------------------------
# The vector pass against a per-query backward_match loop
# ---------------------------------------------------------------------------

#: Each kernel's parameter sizes: instances of a kernel share its layout.
LAYOUTS = {"k0": (8, 8, 4), "k1": (8, 4, 8, 8), "k2": (8,)}
SLOT_SPAN = 1024             # slots never overlap, whatever their size

#: Parameter kinds, weighted: pointers and constants dominate, so most
#: graphs analyse without error and the vote has both kinds to count.
_param = st.tuples(
    st.sampled_from(("ptr",) * 4 + ("const",) * 4 + ("junk", "stale")),
    st.integers(0, 5), st.sampled_from((0, 0, 8, 255, 1023)))
_alloc = st.tuples(st.just("alloc"), st.integers(0, 5),
                   st.sampled_from((256, 512, 1024)))
_launch = st.tuples(st.just("launch"), st.sampled_from(sorted(LAYOUTS)),
                    st.booleans(), st.lists(_param, min_size=4, max_size=4))
_free = st.tuples(st.just("free"), st.integers(0, 5))
_vector_program = st.tuples(
    st.lists(_alloc, min_size=1, max_size=6),
    st.lists(st.one_of(_alloc, _alloc, _free, _free, _launch, _launch,
                       _launch, st.tuples(st.just("cut"))),
             max_size=60),
).map(lambda parts: parts[0] + parts[1])


def _vector_trace(program):
    """Interpret ``program``: returns (trace, graph sizes).

    Slots are reused LIFO-style, so a base address belongs to several
    allocations over time.  A launch parameter is a pointer into the
    ``n``-th live slot (at its base or inside it), a small constant, a
    pointer-like constant that matches no allocation ("junk"), or the base
    of a slot whose latest allocation was freed ("stale").  "cut" starts a
    new graph of the captured launches.
    """
    trace = Trace()
    seq = alloc_index = 0
    live = {}        # slot -> (alloc_index, size)
    freed = set()    # slots allocated before, none live now
    graphs = [0]
    for op in program:
        if op[0] == "alloc" and op[1] not in live:
            live[op[1]] = (alloc_index, op[2])
            freed.discard(op[1])
            trace.record(AllocTraceEvent(seq, alloc_index,
                                         HEAP + op[1] * SLOT_SPAN, op[2],
                                         "t"))
            alloc_index += 1
        elif op[0] == "free" and op[1] in live:
            trace.record(FreeTraceEvent(seq, live.pop(op[1])[0],
                                        HEAP + op[1] * SLOT_SPAN, True))
            freed.add(op[1])
        elif op[0] == "launch":
            _, kernel, captured, params = op
            sizes = LAYOUTS[kernel]
            values = []
            for size, (kind, n, offset) in zip(sizes, params):
                if kind == "ptr" and live:
                    slot = sorted(live)[n % len(live)]
                    value = HEAP + slot * SLOT_SPAN + offset % live[slot][1]
                elif kind == "stale" and freed:
                    value = HEAP + sorted(freed)[n % len(freed)] * SLOT_SPAN
                elif kind in ("ptr", "stale"):
                    value = HEAP + n * SLOT_SPAN
                elif kind == "junk":
                    value = HEAP + (100 + n) * SLOT_SPAN
                else:
                    value = n
                values.append(value)
            trace.record(LaunchTraceEvent(seq, kernel, "l", sizes,
                                          tuple(values), (), captured))
            graphs[-1] += captured
        elif op[0] == "cut":
            graphs.append(0)
            continue
        else:
            continue
        seq += 1
    return trace, graphs


def _reference(index, launches, naive):
    """The per-query analysis: the positional vote over rows, then one
    backward_match (or naive_match) per pointer-like parameter."""
    votes = {}
    for launch in launches:
        for position, (size, value) in enumerate(
                zip(launch.param_sizes, launch.param_values)):
            if size == 8:
                tally = votes.setdefault((launch.kernel_name, position),
                                         [0, 0])
                tally[0] += value >= POINTER_PREFIX
                tally[1] += 1
    demoted = {key for key, (pointers, total) in votes.items()
               if pointers * 2 <= total}
    stats = AnalysisStats()
    kinds, values, offsets = [], [], []
    for launch in launches:
        for position, (size, value) in enumerate(
                zip(launch.param_sizes, launch.param_values)):
            if size != 8 or value < POINTER_PREFIX:
                stats.const_params += 1
            elif (launch.kernel_name, position) in demoted:
                stats.demoted_false_positives += 1
            else:
                match = index.naive_match(value) if naive \
                    else index.backward_match(value, launch.seq)
                if match is None:
                    raise PointerAnalysisError(
                        f"kernel {launch.kernel_name} param {position}: "
                        f"pointer 0x{value:x} matches no intercepted "
                        f"allocation")
                stats.pointer_params += 1
                stats.interior_pointers += match[1] != 0
                kinds.append(POINTER_CODE)
                values.append(match[0])
                offsets.append(match[1])
                continue
            kinds.append(0)
            values.append(value)
            offsets.append(0)
    return (kinds, values, offsets), stats


def _outcome(analyze):
    try:
        return analyze()
    except PointerAnalysisError as exc:
        return str(exc)


class TestVectorPassProperty:
    """analyze_graph_params settles most queries in one vector pass; its
    kinds, values, offsets, stats and errors equal a per-query loop's."""

    @settings(max_examples=500, deadline=None)
    @given(program=_vector_program, naive=st.booleans())
    def test_vector_pass_equals_per_query_loop(self, program, naive):
        trace, graphs = _vector_trace(program)
        index = AllocationIndex(trace)
        columns = trace.launch_columns(captured_only=True)
        rows = trace.launches(captured_only=True)
        start = 0
        for size in graphs:
            def vector():
                params, stats = analyze_graph_params(
                    index, columns.take(start, start + size), naive=naive)
                return tuple(column.tolist() for column in params), stats

            expected = _outcome(
                lambda: _reference(index, rows[start:start + size], naive))
            assert _outcome(vector) == expected
            start += size

    @settings(max_examples=100, deadline=None)
    @given(program=_vector_program)
    def test_only_unsettled_queries_reach_the_matcher(self, program):
        """The per-query matcher answers at most the queries the exact
        pass leaves: never more than the pointer-like parameters."""
        trace, graphs = _vector_trace(program)
        index = AllocationIndex(trace)
        columns = trace.launch_columns(captured_only=True)
        pointer_like = sum(
            is_pointer_like(size, value)
            for launch in trace.launches(captured_only=True)
            for size, value in zip(launch.param_sizes, launch.param_values))
        start = 0
        try:
            for size in graphs:
                analyze_graph_params(index, columns.take(start, start + size))
                start += size
        except PointerAnalysisError:
            return
        assert index.queries <= pointer_like
