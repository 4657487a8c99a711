"""Static artifact verifier: per-pass unit tests plus zoo-wide clean runs."""

import pytest

from repro.analysis import (
    MAPPED,
    SUPERSEDED,
    UNMAPPED,
    analyze_replay,
    lint_artifact,
)
from repro.core.binfmt import save_binary
from repro.core.chunks import open_binary
from repro.errors import ArtifactError
from tests.conftest import artifact_payload, pack_payload as packed

NORM = "_Z9layernormPfS_S_i"          # visible, libtorch_sim/mod_norm
GEMM = "_ZN7cublas_sim10gemm_plainEv"  # hidden, libcublas_sim/mod_gemm


def clean_artifact() -> dict:
    """A hand-built artifact payload that lints clean against the small
    catalog."""
    return artifact_payload(
        model_name="Hand-Built", gpu_name="Tiny-GPU", kv_bytes=1 << 20,
        kv_num_blocks=8, kv_layer_stride=4096, kv_alloc_index=1,
        graph_input_alloc_index=2, graph_output_alloc_index=3,
        capture_marker=4,
        structure_prefix=[[1024, "weight"]],
        replay_events=[
            {"kind": "alloc", "alloc_index": 1, "size": 4096, "tag": "kv"},
            {"kind": "alloc", "alloc_index": 2, "size": 512,
             "tag": "graph_input"},
            {"kind": "alloc", "alloc_index": 3, "size": 512,
             "tag": "graph_output"},
            {"kind": "alloc", "alloc_index": 4, "size": 2048, "tag": "act",
             "pool": "graph"},
            {"kind": "alloc", "alloc_index": 5, "size": 256,
             "tag": "workspace"},
            {"kind": "free", "alloc_index": 4, "pooled": True},
        ],
        kernel_libraries={NORM: "libtorch_sim", GEMM: "libcublas_sim"},
        graphs={"1": {
            "batch_size": 1, "param_bytes": 256, "num_tokens": 1,
            "edges": [[0, 1]],
            "nodes": [
                {"kernel_name": NORM, "param_sizes": [8, 8, 8, 4],
                 "launch_dims": {"batch_size": 1},
                 "param_restores": [
                     {"kind": "ptr", "alloc_index": 2, "offset": 0},
                     {"kind": "ptr", "alloc_index": 0, "offset": 0},
                     {"kind": "ptr", "alloc_index": 3, "offset": 0},
                     {"kind": "const", "value": 64}]},
                {"kernel_name": GEMM, "param_sizes": [8, 8, 8],
                 "launch_dims": {"batch_size": 1},
                 "param_restores": [
                     {"kind": "ptr", "alloc_index": 4, "offset": 128},
                     {"kind": "ptr", "alloc_index": 5, "offset": 0},
                     {"kind": "ptr", "alloc_index": 3, "offset": 0}]},
            ],
        }},
        first_layer_nodes=2,
        permanent_contents={"5": [[1.0]]})


class TestCleanArtifact:
    def test_hand_built_artifact_is_clean(self, catalog):
        report = lint_artifact(packed(clean_artifact()), catalog=catalog)
        assert report.clean, report.format_text()
        assert report.exit_code == 0
        assert report.passes == ["liveness", "pointers", "topology",
                                 "kernels", "coverage"]

    def test_unknown_model_without_catalog_warns_only(self):
        report = lint_artifact(packed(clean_artifact()))
        assert report.codes() == ["MED034"]
        assert not report.errors
        assert report.exit_code == 1    # a warning still counts as dirty

    def test_stats_populated(self, catalog):
        report = lint_artifact(packed(clean_artifact()), catalog=catalog)
        assert report.stats["nodes"] == 2.0
        assert report.stats["allocations"] == 6.0


def column(result, name, alloc_index):
    """One liveness column's entry for ``alloc_index``."""
    at = int(result.find(alloc_index))
    assert at >= 0, f"no allocation holds index {alloc_index}"
    return getattr(result, name)[at]


class TestLivenessPass:
    def test_end_states_and_rows(self):
        artifact = clean_artifact()
        artifact["replay_events"].extend([
            # claim alloc 4's pool block -> 4 becomes superseded
            {"kind": "alloc", "alloc_index": 6, "size": 2048, "tag": "act",
             "pool": "graph"},
            # cudaFree alloc 6 -> unmapped
            {"kind": "free", "alloc_index": 6, "pooled": False},
        ])
        result = analyze_replay(packed(artifact))
        assert not result.diagnostics
        assert result.alloc_index.tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert column(result, "tag", 0) == "weight"     # structure prefix
        assert column(result, "size", 0) == 1024
        assert column(result, "end_state", 1) == MAPPED
        assert column(result, "freed_row", 1) == -1
        assert column(result, "end_state", 4) == SUPERSEDED
        assert column(result, "freed_row", 4) == 5
        assert column(result, "pooled_free", 4)
        assert column(result, "end_row", 4) == -1
        assert column(result, "end_state", 6) == UNMAPPED
        assert column(result, "end_row", 6) == 7
        assert not column(result, "pooled_free", 6)
        assert column(result, "size", 5) == 256     # aligned
        assert result.find([77, -1]).tolist() == [-1, -1]

    def test_empty_cache_releases_pooled_blocks(self):
        artifact = clean_artifact()
        artifact["replay_events"].append({"kind": "empty_cache"})
        result = analyze_replay(packed(artifact))
        assert column(result, "end_state", 4) == UNMAPPED
        assert column(result, "end_row", 4) == 6     # the empty_cache row
        assert column(result, "end_state", 5) == MAPPED   # never freed

    @pytest.mark.parametrize("reuse", [
        {"kind": "empty_cache"},
        {"kind": "alloc", "alloc_index": 5, "size": 2048, "tag": "act",
         "pool": "graph"},
    ], ids=["empty_cache", "pop"])
    def test_drift_leaves_the_newer_holder_of_an_index_alone(self, reuse):
        """A drift that names index 4 again makes a second allocation
        holding it.  Releasing or reusing the older one's pooled block
        acts on the older one: the newer one stays mapped."""
        artifact = clean_artifact()
        artifact["replay_events"].extend([
            {"kind": "alloc", "alloc_index": 4, "size": 256, "tag": "act"},
            reuse])
        result = analyze_replay(packed(artifact))
        assert [d.code for d in result.diagnostics] == ["MED001"]
        assert column(result, "end_state", 4) == MAPPED
        assert column(result, "size", 4) == 256
        assert column(result, "end_row", 4) == -1
        # The newer allocation is live, so a pointer into it is no MED012.
        assert not lint_artifact(packed(artifact)).has("MED012")

    def test_every_invalid_row_is_reported_in_row_order(self):
        artifact = clean_artifact()
        artifact["replay_events"].extend([
            {"kind": "free", "alloc_index": 77, "pooled": False},
            {"kind": "alloc", "alloc_index": 9, "size": 0, "tag": "act"},
            {"kind": "free", "alloc_index": 4, "pooled": True},
            {"kind": 3},                        # a code with no name
            {"kind": "free", "alloc_index": 4, "pooled": True},
        ])
        result = analyze_replay(packed(artifact))
        assert [(d.code, d.location) for d in result.diagnostics] == [
            ("MED002", "replay[6]"), ("MED001", "replay[7]"),
            ("MED004", "replay[7]"), ("MED003", "replay[8]"),
            ("MED005", "replay[9]"), ("MED003", "replay[10]")]
        assert result.diagnostics[3].message.endswith(
            "(first free at replay[5])")
        assert result.rows_visited == 6     # row 7 is worded twice

    def test_double_free_flagged(self):
        artifact = clean_artifact()
        artifact["replay_events"].append(
            {"kind": "free", "alloc_index": 4, "pooled": True})
        result = analyze_replay(packed(artifact))
        assert [d.code for d in result.diagnostics] == ["MED003"]

    def test_free_of_unknown_index_flagged(self):
        artifact = clean_artifact()
        artifact["replay_events"].append(
            {"kind": "free", "alloc_index": 77, "pooled": False})
        result = analyze_replay(packed(artifact))
        assert [d.code for d in result.diagnostics] == ["MED002"]

    def test_alloc_index_drift_flagged(self):
        artifact = clean_artifact()
        artifact["replay_events"].insert(0, {
            "kind": "alloc", "alloc_index": 9, "size": 64, "tag": "act"})
        result = analyze_replay(packed(artifact))
        assert any(d.code == "MED001" for d in result.diagnostics)

    def test_unknown_event_kind_flagged(self):
        """A kind code with no name is rejected."""
        artifact = clean_artifact()
        artifact["replay_events"].append({"kind": 3})
        result = analyze_replay(packed(artifact))
        assert [d.code for d in result.diagnostics] == ["MED005"]

    def test_mistagged_kv_anchor_flagged(self):
        artifact = clean_artifact()
        artifact["kv_alloc_index"] = 2    # tagged graph_input
        result = analyze_replay(packed(artifact))
        assert any(d.code == "MED006" for d in result.diagnostics)


class TestPointerPass:
    def test_pointer_to_superseded_temporary_is_legal(self, catalog):
        """Pool reuse keeps the memory mapped; graph kernels rewrite
        temporaries before reading (§4.3) — no diagnostic."""
        artifact = clean_artifact()
        artifact["replay_events"].append({
            "kind": "alloc", "alloc_index": 6, "size": 2048, "tag": "act",
            "pool": "graph"})
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.clean, report.format_text()

    def test_pointer_to_cudafreed_memory_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["replay_events"][-1] = {
            "kind": "free", "alloc_index": 4,
            "pooled": False}                       # cudaFree, not pool free
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.has("MED012")

    def test_offset_at_last_byte_legal_one_past_flagged(self, catalog):
        artifact = clean_artifact()
        rule = artifact["graphs"]["1"]["nodes"][1]["param_restores"][0]
        rule["offset"] = 2047
        assert lint_artifact(packed(artifact), catalog=catalog).clean
        rule["offset"] = 2048
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED011")


class TestTopologyPass:
    def test_cycle_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["graphs"]["1"]["edges"].append([1, 0])
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.has("MED021")

    def test_self_edge_is_a_cycle(self, catalog):
        artifact = clean_artifact()
        artifact["graphs"]["1"]["edges"].append([0, 0])
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED021")

    def test_first_layer_prefix_divergence_flagged(self, catalog):
        artifact = clean_artifact()
        nodes = artifact["graphs"]["1"]["nodes"]
        artifact["graphs"]["2"] = {
            "batch_size": 2,
            "nodes": [nodes[1], nodes[0]],              # reordered
            "edges": [[0, 1]], "param_bytes": 256, "num_tokens": 2}
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.has("MED024")

    def test_node_at_another_batch_dim_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["graphs"]["1"]["nodes"][1]["launch_dims"]["batch_size"] = 2
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.codes() == ["MED025"]
        assert report.diagnostics[0].location == "graphs[1].nodes[1]"

    @pytest.mark.parametrize("batch", [0, -3])
    def test_non_positive_batch_is_refused_on_open(self, batch, tmp_path):
        artifact = clean_artifact()
        artifact["graphs"][str(batch)] = artifact["graphs"].pop("1")
        save_binary(packed(artifact), tmp_path / "a.medusa")
        with pytest.raises(ArtifactError, match="positive batch size"):
            open_binary(tmp_path / "a.medusa")


class TestKernelPass:
    def test_hidden_module_without_coverage_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["first_layer_nodes"] = 1   # hidden GEMM no longer warmed up
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.has("MED031")

    def test_trigger_plan_restores_coverage(self, catalog):
        artifact = clean_artifact()
        artifact["first_layer_nodes"] = 1
        artifact["trigger_plans"] = [{"kernel_name": GEMM,
                                      "node_ref": [1, 1]}]
        report = lint_artifact(packed(artifact), catalog=catalog)
        assert report.clean, report.format_text()

    def test_trigger_plan_kernel_node_mismatch_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["trigger_plans"] = [{"kernel_name": GEMM,
                                      "node_ref": [1, 0]}]  # node 0 is NORM
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED032")

    def test_library_skew_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["kernel_libraries"][NORM] = "libcublas_sim"
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED033")


class TestCoveragePass:
    def test_missing_permanent_dump_flagged(self, catalog):
        artifact = clean_artifact()
        artifact["permanent_contents"] = {}
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED042")

    def test_orphan_dump_flagged(self, catalog):
        artifact = clean_artifact()
        # Allocation 2 is the graph input: pre-capture.
        artifact["permanent_contents"]["2"] = [[9.0]]
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED041")

    def test_layout_divergence_flagged(self, catalog):
        artifact = clean_artifact()
        divergent = {
            "kernel_name": NORM,
            "param_sizes": [8, 8, 8, 4],
            "param_restores": [
                {"kind": "ptr", "alloc_index": 2, "offset": 0},
                {"kind": "const", "value": 123},    # weight demoted
                {"kind": "ptr", "alloc_index": 3, "offset": 0},
                {"kind": "const", "value": 64}],
            "launch_dims": {"batch_size": 1}}
        artifact["graphs"]["1"]["nodes"].append(divergent)
        assert lint_artifact(packed(artifact),
                             catalog=catalog).has("MED043")


class TestBinaryReadBack:
    def test_round_trip_stays_clean(self, catalog, tmp_path):
        save_binary(packed(clean_artifact()), tmp_path / "a.medusa")
        report = lint_artifact(open_binary(tmp_path / "a.medusa"),
                               catalog=catalog)
        assert report.clean, report.format_text()


class TestLintIsCheap:
    def test_lint_runs_no_process_and_no_clock(self, tiny2l_artifact,
                                               monkeypatch):
        """Lint is static: it builds no simulated process and advances no
        simulated clock, so it costs no GPU time.  (The wall-clock ratio
        against validate_restoration is a perf-smoke gate in
        benchmarks/bench_wallclock.py --quick.)"""
        from repro.simgpu.clock import SimClock
        from repro.simgpu.process import CudaProcess

        counts = {"processes": 0, "advances": 0}
        real_init = CudaProcess.__init__
        real_advance = SimClock.advance
        real_advance_to = SimClock.advance_to

        def counting_init(self, *args, **kwargs):
            counts["processes"] += 1
            real_init(self, *args, **kwargs)

        def counting_advance(self, seconds):
            counts["advances"] += 1
            return real_advance(self, seconds)

        def counting_advance_to(self, deadline):
            counts["advances"] += 1
            return real_advance_to(self, deadline)

        monkeypatch.setattr(CudaProcess, "__init__", counting_init)
        monkeypatch.setattr(SimClock, "advance", counting_advance)
        monkeypatch.setattr(SimClock, "advance_to", counting_advance_to)

        artifact, _report = tiny2l_artifact
        report = lint_artifact(artifact)
        assert report.clean
        assert counts == {"processes": 0, "advances": 0}

        # The counters do count: one simulated process advances its clock.
        from tests.conftest import make_small_catalog
        CudaProcess(seed=1, catalog=make_small_catalog()).synchronize()
        assert counts["processes"] == 1 and counts["advances"] >= 1


class TestZooArtifactsLintClean:
    """No false positives: every model in the zoo materializes clean."""

    def test_tiny_artifacts_clean(self, tiny2l_artifact, tiny4l_artifact):
        for artifact, _report in (tiny2l_artifact, tiny4l_artifact):
            report = lint_artifact(artifact)
            assert report.clean, report.format_text()

    @pytest.mark.parametrize("model", [
        "Falcon-7B", "Llama2-7B", "Llama2-13B", "Qwen1.5-0.5B",
        "Qwen1.5-1.8B", "Qwen1.5-4B", "Qwen1.5-7B", "Qwen1.5-14B",
        "Yi-6B", "Yi-9B", "Tiny-Wide",
    ])
    def test_zoo_artifact_clean(self, model):
        from repro.core.offline import run_offline
        from repro.models.zoo import get_model_config
        config = get_model_config(model)
        subset = tuple(config.capture_batch_sizes[:3])
        artifact, report = run_offline(model, seed=11, batch_subset=subset)
        assert artifact.stats["lint_diagnostics"] == 0.0
        lint = lint_artifact(artifact)
        assert lint.clean, lint.format_text()
