"""Mutation testing for the static artifact verifier.

Each mutation corrupts one invariant of a *golden* (known-clean) Tiny-2L
binary artifact, re-saved (:func:`tests.conftest.resaved`), and asserts
the analyzer flags the file it opens with the right stable MED0xx code.
This is the acceptance gate for the analyzer itself: a pass that stops
detecting its corruption fails here, not in production.  A mutation
edits the whole members (numpy arrays) and the metadata dict.
"""

import numpy as np
import pytest

from repro.analysis import lint_artifact
from repro.core.binfmt import GRAPH_MEMBERS, REPLAY_MEMBERS, save_binary
from repro.core.chunks import open_binary
from tests.conftest import resaved

BOGUS = "_Z9bogusKernelv"
ALLOC, FREE = 0, 1


@pytest.fixture(scope="session")
def golden_file(tiny2l_artifact, tmp_path_factory):
    artifact, _report = tiny2l_artifact
    path = tmp_path_factory.mktemp("golden") / "tiny2l.medusa"
    save_binary(artifact, path)
    return path


def _lint(path):
    return lint_artifact(open_binary(path))


def _first_batch(meta) -> int:
    return int(next(iter(meta["graph_meta"])))


def _pointer_slots(members, batch):
    """Flat parameter slots of batch ``batch``'s pointer restores."""
    return np.flatnonzero(members[f"g{batch}_param_kinds"] == 1)


def _first_pointer(members, meta):
    """(batch, flat slot) of the first graph's first pointer restore."""
    batch = _first_batch(meta)
    return batch, int(_pointer_slots(members, batch)[0])


def _first_row(members, kind) -> int:
    return int(np.flatnonzero(members["ev_kind"] == kind)[0])


def _append_event(members, row):
    """Append one replay row: {member: value} over the six columns."""
    for name in REPLAY_MEMBERS:
        column = members[name]
        members[name] = np.append(column, np.array([row[name]],
                                                   dtype=column.dtype))


def _event(members, row: int) -> dict:
    return {name: members[name][row] for name in REPLAY_MEMBERS}


# -- the mutations ---------------------------------------------------------
# Each takes the members and metadata, corrupts them in place, and the
# test asserts the paired code fires.  Keep one invariant per mutation.

def mutate_alloc_index_drift(members, meta):
    members["ev_alloc_index"][_first_row(members, ALLOC)] += 1000


def mutate_free_unknown_index(members, meta):
    _append_event(members, {"ev_kind": FREE, "ev_alloc_index": 999999,
                            "ev_size": 0, "ev_pooled": 0, "ev_tag": 0,
                            "ev_pool": 0})


def mutate_double_free(members, meta):
    _append_event(members, _event(members, _first_row(members, FREE)))


def mutate_zero_size_alloc(members, meta):
    members["ev_size"][_first_row(members, ALLOC)] = 0


def mutate_mistagged_kv_anchor(members, meta):
    meta["kv_alloc_index"] = meta["graph_input_alloc_index"]


def mutate_pointer_index_out_of_range(members, meta):
    batch, slot = _first_pointer(members, meta)
    members[f"g{batch}_param_values"][slot] = 10**6


def mutate_pointer_offset_out_of_bounds(members, meta):
    batch, slot = _first_pointer(members, meta)
    members[f"g{batch}_param_byte_offsets"][slot] = 10**9


def mutate_referenced_free_to_cudafree(members, meta):
    """A pool free keeps memory mapped; rewriting it to a cudaFree makes
    every pointer into that buffer a use-after-free."""
    referenced = np.concatenate([
        members[f"g{batch}_param_values"][_pointer_slots(members, batch)]
        for batch in map(int, meta["graph_meta"])])
    row = np.flatnonzero((members["ev_kind"] == FREE)
                         & (members["ev_pooled"] == 1)
                         & np.isin(members["ev_alloc_index"], referenced))[0]
    members["ev_pooled"][row] = 0


def mutate_pointer_on_narrow_param(members, meta):
    batch, slot = _first_pointer(members, meta)
    members[f"g{batch}_param_sizes"][slot] = 4


def mutate_edge_to_missing_node(members, meta):
    name = f"g{_first_batch(meta)}_edges"
    members[name] = np.concatenate([members[name], [[0, 999999]]])


def mutate_cycle(members, meta):
    name = f"g{_first_batch(meta)}_edges"
    edges = members[name]
    cycle = edges[:1, ::-1] if len(edges) else [[0, 1], [1, 0]]
    members[name] = np.concatenate([edges, cycle]).astype(edges.dtype)


def mutate_first_layer_overrun(members, meta):
    meta["first_layer_nodes"] = 10**4


def mutate_first_layer_prefix_divergence(members, meta):
    """Swap two differently-named nodes inside one batch's first-layer
    prefix so the warm-up prefix no longer agrees across batches."""
    prefix = f"g{_first_batch(meta)}_"
    kernels = members[prefix + "kernel"]
    limit = min(meta["first_layer_nodes"], len(kernels))
    j = next(j for j in range(1, limit) if kernels[j] != kernels[0])
    order = np.arange(len(kernels))
    order[[0, j]] = [j, 0]
    offsets = members[prefix + "param_offsets"]
    slots = np.concatenate([np.arange(offsets[node], offsets[node + 1])
                            for node in order])
    for name in ("kernel", "batchdim"):
        members[prefix + name] = members[prefix + name][order]
    for name in GRAPH_MEMBERS[3:-1]:
        members[prefix + name] = members[prefix + name][slots]
    members[prefix + "param_offsets"] = np.concatenate(
        [[0], np.cumsum(np.diff(offsets)[order])]).astype(offsets.dtype)


def mutate_batch_past_the_model(members, meta):
    """Re-key the largest graph past Tiny-2L's largest capture batch size,
    its nodes with it, so only the bound breaks."""
    largest = max(meta["batches"])
    batch = largest * 2
    for name in GRAPH_MEMBERS:
        members[f"g{batch}_{name}"] = members.pop(f"g{largest}_{name}")
    members[f"g{batch}_batchdim"][:] = batch
    meta["batches"] = sorted(batch if b == largest else b
                             for b in meta["batches"])
    meta["graph_meta"] = {str(batch) if key == str(largest) else key: row
                          for key, row in meta["graph_meta"].items()}


def mutate_node_batch_dim(members, meta):
    members[f"g{_first_batch(meta)}_batchdim"][-1] = 2 ** 30


def mutate_unresolvable_kernel(members, meta):
    batch = max(meta["graph_meta"], key=lambda key: meta["graph_meta"][key][2])
    members["kernel_names"] = np.append(members["kernel_names"], BOGUS)
    members[f"g{batch}_kernel"][-1] = len(members["kernel_names"]) - 1


def mutate_uncovered_hidden_module(members, meta):
    meta["first_layer_nodes"] = 1
    meta["trigger_plans"] = []


def mutate_dangling_trigger_plan(members, meta):
    kernel = next(iter(meta["kernel_libraries"]))
    meta["trigger_plans"].append([kernel, [_first_batch(meta), 999999]])


def mutate_library_table_skew(members, meta):
    kernel = next(iter(meta["kernel_libraries"]))
    meta["kernel_libraries"][kernel] = "libbogus"


def mutate_orphan_permanent_dump(members, meta):
    # Allocation 0 is structure prefix — before the capture marker, so it
    # can never be classified permanent; dumping it is an orphan.
    meta["permanent_contents"]["0"] = [[1.0]]


def mutate_missing_permanent_dump(members, meta):
    del meta["permanent_contents"][next(iter(meta["permanent_contents"]))]


def mutate_layout_divergence(members, meta):
    batch, slot = _first_pointer(members, meta)
    prefix = f"g{batch}_param_"
    members[prefix + "kinds"][slot] = 0
    members[prefix + "values"][slot] = 7
    members[prefix + "byte_offsets"][slot] = 0


def mutate_capture_marker_out_of_range(members, meta):
    meta["capture_marker"] = -5


MUTATIONS = [
    (mutate_alloc_index_drift, "MED001"),
    (mutate_free_unknown_index, "MED002"),
    (mutate_double_free, "MED003"),
    (mutate_zero_size_alloc, "MED004"),
    (mutate_mistagged_kv_anchor, "MED006"),
    (mutate_pointer_index_out_of_range, "MED010"),
    (mutate_pointer_offset_out_of_bounds, "MED011"),
    (mutate_referenced_free_to_cudafree, "MED012"),
    (mutate_pointer_on_narrow_param, "MED013"),
    (mutate_edge_to_missing_node, "MED020"),
    (mutate_cycle, "MED021"),
    (mutate_first_layer_overrun, "MED023"),
    (mutate_first_layer_prefix_divergence, "MED024"),
    (mutate_batch_past_the_model, "MED025"),
    (mutate_node_batch_dim, "MED025"),
    (mutate_unresolvable_kernel, "MED030"),
    (mutate_uncovered_hidden_module, "MED031"),
    (mutate_dangling_trigger_plan, "MED032"),
    (mutate_library_table_skew, "MED033"),
    (mutate_orphan_permanent_dump, "MED041"),
    (mutate_missing_permanent_dump, "MED042"),
    (mutate_layout_divergence, "MED043"),
    (mutate_capture_marker_out_of_range, "MED044"),
]


def test_golden_file_is_clean(golden_file):
    report = _lint(golden_file)
    assert report.clean, report.format_text()


@pytest.mark.parametrize(
    "mutate,expected_code", MUTATIONS,
    ids=[f"{code}-{fn.__name__}" for fn, code in MUTATIONS])
def test_mutation_is_flagged(golden_file, tmp_path, mutate, expected_code):
    report = _lint(resaved(golden_file, tmp_path / "m.medusa", mutate))
    assert report.has(expected_code), (
        f"{mutate.__name__} expected {expected_code}, got "
        f"{report.codes() or 'a clean report'}\n{report.format_text()}")
    assert report.exit_code == 1


def test_mutations_cover_at_least_ten_distinct_codes():
    assert len({code for _, code in MUTATIONS}) >= 10


# -- fault-kind ↔ static-diagnostic sync -----------------------------------
# Every fault the chaos harness can inject must either map to a MED0xx code
# (and the canonical corruption must actually trip it on a stored artifact)
# or carry an explicit runtime-only marker.  A new FaultKind without an
# entry fails here, forcing the author to decide which side it lands on.

from repro.faults import (  # noqa: E402
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

#: Marker for fault kinds no static MED0xx diagnostic can catch — they only
#: exist at restore time (live allocator state, live driver state).
RUNTIME_ONLY = "runtime-only"

#: Static-lint coverage per fault kind: either the MED0xx code that flags
#: the canonical corruption in a *stored* artifact, or ``RUNTIME_ONLY``.
FAULT_STATIC_COVERAGE = {
    # The canonical corruption (pointer offset outside its allocation) is
    # exactly what the pointer linter checks.
    FaultKind.ARTIFACT_CORRUPTION: "MED011",
    # The remaining kinds corrupt the *process*, not the artifact bytes:
    FaultKind.REPLAY_DIVERGENCE: RUNTIME_ONLY,
    FaultKind.HIDDEN_KERNEL_UNRESOLVED: RUNTIME_ONLY,
    FaultKind.REPLAY_OOM: RUNTIME_ONLY,
    FaultKind.PERMANENT_DUMP_BITFLIP: RUNTIME_ONLY,
    FaultKind.TRIGGER_TIMEOUT: RUNTIME_ONLY,
}


def test_every_fault_kind_declares_static_coverage():
    assert set(FAULT_STATIC_COVERAGE) == set(FaultKind)
    for kind, coverage in FAULT_STATIC_COVERAGE.items():
        assert coverage == RUNTIME_ONLY or coverage.startswith("MED"), (
            f"{kind.value}: coverage must be a MED0xx code or "
            f"{RUNTIME_ONLY!r}, got {coverage!r}")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_statically_coverable_faults_trip_their_code(golden_file, tmp_path,
                                                     seed):
    """The injector's own artifact corruption, written into the binary
    member it edits, is caught by the exact code FAULT_STATIC_COVERAGE
    claims for it, at the node and parameter the injector picked."""
    checked = 0
    for kind, code in FAULT_STATIC_COVERAGE.items():
        if code == RUNTIME_ONLY:
            continue
        assert kind is FaultKind.ARTIFACT_CORRUPTION   # the only one so far
        injector = FaultInjector(FaultPlan(seed=seed,
                                           faults=(FaultSpec(kind),)))
        [(batch, table)] = injector.corrupted_tables(
            open_binary(golden_file)).items()
        [(_site, fired)] = injector.fired
        node, param = (int(word) for word in
                       fired.split(" node ")[1].split()[:3:2])

        def corrupt(members, meta):
            members[f"g{batch}_param_byte_offsets"] = \
                table.param_byte_offsets
        report = _lint(resaved(golden_file, tmp_path / "c.medusa", corrupt))
        assert [d.location for d in report.diagnostics
                if d.code == code] == [
            f"graphs[{batch}].nodes[{node}].params[{param}]"], (
            f"{kind.value}: expected {code} at node {node} param {param}, "
            f"got {report.format_text()}")
        checked += 1
    assert checked >= 1


def test_runtime_only_faults_stay_invisible_to_lint(golden_file):
    """Runtime-only kinds corrupt process state, not artifact bytes — the
    golden artifact itself must stay lint-clean, which is what makes the
    runtime-only marker honest."""
    assert _lint(golden_file).clean
    runtime_only = [k for k, c in FAULT_STATIC_COVERAGE.items()
                    if c == RUNTIME_ONLY]
    assert len(runtime_only) == len(FaultKind) - 1
