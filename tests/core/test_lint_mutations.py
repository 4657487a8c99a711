"""Mutation testing for the static artifact verifier.

Each mutation corrupts one invariant of a *golden* (known-clean) Tiny-2L
artifact payload and asserts the analyzer flags it with the right stable
MED0xx code.  This is the acceptance gate for the analyzer itself: a pass
that stops detecting its corruption fails here, not in production.
"""

import copy
import json

import pytest

from repro.analysis import lint_json_text

BOGUS = "_Z9bogusKernelv"


@pytest.fixture(scope="session")
def golden_payload(tiny2l_artifact):
    artifact, _report = tiny2l_artifact
    return json.loads(artifact.to_json())


def _ptr_restores(payload):
    """Yield (graph, node_index, param_index, restore) for every pointer."""
    for graph in payload["graphs"].values():
        for node_index, node in enumerate(graph["nodes"]):
            for param_index, restore in enumerate(node["param_restores"]):
                if restore["kind"] == "ptr":
                    yield graph, node_index, param_index, restore


def _first_ptr(payload):
    return next(_ptr_restores(payload))[3]


def _referenced_indices(payload):
    return {restore["alloc_index"] for _, _, _, restore in
            _ptr_restores(payload)}


# -- the mutations ---------------------------------------------------------
# Each takes the payload, corrupts it in place, and the test asserts the
# paired code fires.  Keep one invariant per mutation.

def mutate_alloc_index_drift(payload):
    event = next(e for e in payload["replay_events"] if e["kind"] == "alloc")
    event["alloc_index"] += 1000


def mutate_free_unknown_index(payload):
    payload["replay_events"].append(
        {"kind": "free", "alloc_index": 999999, "size": 0, "tag": "",
         "pooled": False, "pool": "default"})


def mutate_double_free(payload):
    free = next(e for e in payload["replay_events"] if e["kind"] == "free")
    payload["replay_events"].append(copy.deepcopy(free))


def mutate_zero_size_alloc(payload):
    event = next(e for e in payload["replay_events"] if e["kind"] == "alloc")
    event["size"] = 0


def mutate_mistagged_kv_anchor(payload):
    payload["kv_alloc_index"] = payload["graph_input_alloc_index"]


def mutate_pointer_index_out_of_range(payload):
    _first_ptr(payload)["alloc_index"] = 10**6


def mutate_pointer_offset_out_of_bounds(payload):
    _first_ptr(payload)["offset"] = 10**9


def mutate_referenced_free_to_cudafree(payload):
    """A pool free keeps memory mapped; rewriting it to a cudaFree makes
    every pointer into that buffer a use-after-free."""
    referenced = _referenced_indices(payload)
    free = next(e for e in payload["replay_events"]
                if e["kind"] == "free" and e["pooled"]
                and e["alloc_index"] in referenced)
    free["pooled"] = False


def mutate_pointer_on_narrow_param(payload):
    graph, node_index, param_index, _restore = next(_ptr_restores(payload))
    graph["nodes"][node_index]["param_sizes"][param_index] = 4


def mutate_dropped_restore_rule(payload):
    node = next(iter(payload["graphs"].values()))["nodes"][0]
    node["param_restores"].pop()


def mutate_edge_to_missing_node(payload):
    next(iter(payload["graphs"].values()))["edges"].append([0, 999999])


def mutate_cycle(payload):
    graph = next(iter(payload["graphs"].values()))
    if graph["edges"]:
        src, dst = graph["edges"][0]
        graph["edges"].append([dst, src])
    else:
        graph["edges"].extend([[0, 1], [1, 0]])


def mutate_batch_key_skew(payload):
    key = next(iter(payload["graphs"]))
    unused = str(max(int(k) for k in payload["graphs"]) * 2 + 1)
    payload["graphs"][unused] = payload["graphs"].pop(key)


def mutate_first_layer_overrun(payload):
    payload["first_layer_nodes"] = 10**4


def mutate_first_layer_prefix_divergence(payload):
    """Swap two differently-named nodes inside one batch's first-layer
    prefix so the warm-up prefix no longer agrees across batches."""
    graph = next(iter(payload["graphs"].values()))
    limit = min(payload["first_layer_nodes"], len(graph["nodes"]))
    names = [node["kernel_name"] for node in graph["nodes"][:limit]]
    i = 0
    j = next(j for j in range(1, limit) if names[j] != names[i])
    nodes = graph["nodes"]
    nodes[i], nodes[j] = nodes[j], nodes[i]


def mutate_batch_past_the_model(payload):
    """Re-key the largest graph past Tiny-2L's largest capture batch size,
    its nodes with it, so only the bound breaks."""
    key = max(payload["graphs"], key=int)
    graph = payload["graphs"].pop(key)
    batch = int(key) * 2
    graph["batch_size"] = batch
    for node in graph["nodes"]:
        node["launch_dims"]["batch_size"] = batch
    payload["graphs"][str(batch)] = graph


def mutate_node_batch_dim(payload):
    node = next(iter(payload["graphs"].values()))["nodes"][-1]
    node["launch_dims"]["batch_size"] = 2 ** 30


def mutate_unresolvable_kernel(payload):
    graph = max(payload["graphs"].values(), key=lambda g: len(g["nodes"]))
    graph["nodes"][-1]["kernel_name"] = BOGUS


def mutate_uncovered_hidden_module(payload):
    payload["first_layer_nodes"] = 1
    payload["trigger_plans"] = []


def mutate_dangling_trigger_plan(payload):
    kernel = next(iter(payload["kernel_libraries"]))
    batch = int(next(iter(payload["graphs"])))
    payload["trigger_plans"].append(
        {"kernel_name": kernel, "node_ref": [batch, 999999]})


def mutate_library_table_skew(payload):
    kernel = next(iter(payload["kernel_libraries"]))
    payload["kernel_libraries"][kernel] = "libbogus"


def mutate_stale_format_version(payload):
    payload["format_version"] = 1


def mutate_orphan_permanent_dump(payload):
    # Allocation 0 is structure prefix — before the capture marker, so it
    # can never be classified permanent; dumping it is an orphan.
    payload["permanent_contents"]["0"] = [[1.0]]


def mutate_missing_permanent_dump(payload):
    key = next(iter(payload["permanent_contents"]))
    del payload["permanent_contents"][key]


def mutate_layout_divergence(payload):
    graph, node_index, param_index, restore = next(_ptr_restores(payload))
    restore.clear()
    restore.update({"kind": "const", "value": 7,
                    "alloc_index": -1, "offset": 0})


def mutate_capture_marker_out_of_range(payload):
    payload["capture_marker"] = -5


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
    (mutate_dropped_restore_rule, "MED014"),
    (mutate_edge_to_missing_node, "MED020"),
    (mutate_cycle, "MED021"),
    (mutate_batch_key_skew, "MED022"),
    (mutate_first_layer_overrun, "MED023"),
    (mutate_first_layer_prefix_divergence, "MED024"),
    (mutate_batch_past_the_model, "MED025"),
    (mutate_node_batch_dim, "MED025"),
    (mutate_unresolvable_kernel, "MED030"),
    (mutate_uncovered_hidden_module, "MED031"),
    (mutate_dangling_trigger_plan, "MED032"),
    (mutate_library_table_skew, "MED033"),
    (mutate_stale_format_version, "MED040"),
    (mutate_orphan_permanent_dump, "MED041"),
    (mutate_missing_permanent_dump, "MED042"),
    (mutate_layout_divergence, "MED043"),
    (mutate_capture_marker_out_of_range, "MED044"),
]


def test_golden_payload_is_clean(golden_payload):
    report = lint_json_text(json.dumps(golden_payload))
    assert report.clean, report.format_text()


@pytest.mark.parametrize(
    "mutate,expected_code", MUTATIONS,
    ids=[f"{code}-{fn.__name__}" for fn, code in MUTATIONS])
def test_mutation_is_flagged(golden_payload, mutate, expected_code):
    payload = copy.deepcopy(golden_payload)
    mutate(payload)
    report = lint_json_text(json.dumps(payload))
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
    FAULT_STATIC_COVERAGE,
    RUNTIME_ONLY,
    FaultKind,
    corrupt_graph_payload,
)


def test_every_fault_kind_declares_static_coverage():
    assert set(FAULT_STATIC_COVERAGE) == set(FaultKind)
    for kind, coverage in FAULT_STATIC_COVERAGE.items():
        assert coverage == RUNTIME_ONLY or coverage.startswith("MED"), (
            f"{kind.value}: coverage must be a MED0xx code or "
            f"{RUNTIME_ONLY!r}, got {coverage!r}")


def test_statically_coverable_faults_trip_their_code(golden_payload):
    """The injector's canonical artifact corruption is caught by the exact
    code FAULT_STATIC_COVERAGE claims for it."""
    checked = 0
    for kind, code in FAULT_STATIC_COVERAGE.items():
        if code == RUNTIME_ONLY:
            continue
        assert kind is FaultKind.ARTIFACT_CORRUPTION   # the only one so far
        payload = copy.deepcopy(golden_payload)
        corrupt_graph_payload(payload)
        report = lint_json_text(json.dumps(payload))
        assert report.has(code), (
            f"{kind.value}: expected {code}, got "
            f"{report.codes() or 'a clean report'}")
        checked += 1
    assert checked >= 1


def test_runtime_only_faults_stay_invisible_to_lint(golden_payload):
    """Runtime-only kinds corrupt process state, not artifact bytes — the
    golden artifact itself must stay lint-clean, which is what makes the
    runtime-only marker honest."""
    report = lint_json_text(json.dumps(golden_payload))
    assert report.clean
    runtime_only = [k for k, c in FAULT_STATIC_COVERAGE.items()
                    if c == RUNTIME_ONLY]
    assert len(runtime_only) == len(FaultKind) - 1
