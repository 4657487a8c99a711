"""Property-based tests of lint's liveness pass (hypothesis).

Lint's liveness columns come from the allocator's array solver.  For any
clean replay table (a structure prefix, then allocations, cudaFrees, pool
frees and empty_cache rows), they must say what the same rows say when
made one by one as ``DeviceAllocator`` calls: every allocation's aligned
size, whether it is still mapped, superseded by a reuse or released, and
the row that released it.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import MAPPED, SUPERSEDED, UNMAPPED, analyze_replay
from repro.simgpu.memory import DeviceAllocator

from tests.conftest import artifact_payload, pack_payload

_SIZES = st.sampled_from([1, 200, 256, 257, 512, 1000, 2048])
_POOLS = st.sampled_from(["default", "graph"])
_prefix = st.lists(_SIZES, max_size=4)
# alloc(size, pool) | free(k) | pool_free(k) | empty_cache, where k picks
# among the allocations not yet freed.
_rows = st.lists(st.one_of(
    st.tuples(st.just("alloc"), _SIZES, _POOLS),
    st.tuples(st.sampled_from(["free", "pool_free"]),
              st.integers(0, 40), st.just("")),
    st.tuples(st.just("empty_cache"), st.just(0), st.just("")),
), max_size=60)


def _events(prefix, rows):
    """The replay events of a clean table: indices count on from the
    prefix, and each free names an allocation not yet freed."""
    held = list(range(len(prefix)))
    next_index = len(prefix)
    events = []
    for op, arg, pool in rows:
        if op == "alloc":
            events.append({"kind": "alloc", "alloc_index": next_index,
                           "size": arg, "tag": "act", "pool": pool})
            held.append(next_index)
            next_index += 1
        elif op != "empty_cache" and held:
            events.append({"kind": "free", "pooled": op == "pool_free",
                           "alloc_index": held.pop(arg % len(held))})
        elif op == "empty_cache":
            events.append({"kind": "empty_cache"})
    return events


def _row_by_row(prefix, events):
    """Make the rows as allocator calls; per allocation index, (aligned
    size, end state, end row when released or -1)."""
    allocator = DeviceAllocator(base=1 << 40, capacity_bytes=1 << 30)
    buffers = [allocator.malloc(size, tag="weight") for size in prefix]
    ended = {}
    for row, event in enumerate(events):
        if event["kind"] == "alloc":
            buffers.append(allocator.malloc(
                event["size"], tag=event["tag"], pool=event["pool"]))
            cause = SUPERSEDED
        elif event["kind"] == "free":
            address = buffers[event["alloc_index"]].address
            if event["pooled"]:
                allocator.pool_free(address)
            else:
                allocator.free(address)
            cause = UNMAPPED
        else:
            allocator.empty_cache()
            cause = UNMAPPED
        for buffer in buffers:
            if not buffer.live and buffer.alloc_index not in ended:
                ended[buffer.alloc_index] = (
                    cause, row if cause == UNMAPPED else -1)
    return [(buffer.size, *ended.get(buffer.alloc_index, (MAPPED, -1)))
            for buffer in buffers]


class TestLivenessMatchesTheAllocator:
    @settings(max_examples=200, deadline=None)
    @given(prefix=_prefix, rows=_rows)
    def test_columns_match_row_by_row_calls(self, prefix, rows):
        events = _events(prefix, rows)
        liveness = analyze_replay(pack_payload(artifact_payload(
            structure_prefix=[[size, "weight"] for size in prefix],
            replay_events=events)))
        # Only the (absent) anchors are flagged on a clean table.
        assert {d.code for d in liveness.diagnostics} <= {"MED006"}
        expected = _row_by_row(prefix, events)
        assert liveness.alloc_index.tolist() == list(range(len(expected)))
        assert list(zip(liveness.size.tolist(), liveness.end_state.tolist(),
                        liveness.end_row.tolist())) == expected
