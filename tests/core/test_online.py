"""Online restoration tests: the heart of the reproduction.

A fresh process (new heap base, new ASLR layout) restores the offline
artifact and must produce ready-to-execute graphs whose replay output equals
eager forwarding bit-for-bit.
"""

import numpy as np
import pytest

from repro.core.chunks import open_binary
from repro.core.online import OnlineRestorer, medusa_cold_start
from repro.core.validation import make_input_ids, validate_restoration
from repro.engine import LLMEngine, Strategy
from repro.errors import RestorationError
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode

from tests.conftest import resaved, tiny_cost_model

TINY2 = get_model_config("Tiny-2L")


def restore(artifact, seed=303, mode=ExecutionMode.COMPUTE):
    return medusa_cold_start("Tiny-2L", artifact, seed=seed, mode=mode,
                             cost_model=tiny_cost_model())


def broken(tiny2l_artifact, tmp_path, edit):
    """The Tiny-2L artifact re-saved with ``edit`` and opened again."""
    artifact, _ = tiny2l_artifact
    return open_binary(resaved(artifact, tmp_path / "broken.medusa", edit))


class TestRestoredEngine:
    def test_graphs_restored_for_all_batches(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, _report = restore(artifact)
        assert set(engine.capture_artifacts.execs) == \
            set(TINY2.capture_batch_sizes)

    def test_kv_restored_without_profiling(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = restore(artifact)
        assert engine.kv_bytes == artifact.kv_bytes
        assert engine.kv_region.num_blocks == artifact.kv_num_blocks
        # Restored KV init is far cheaper than a profiling forwarding.
        assert report.stage_durations["kv_init"] < 0.1

    def test_restored_addresses_differ_from_offline(self, tiny2l_artifact):
        """ASLR: the restored kernel addresses are process-local."""
        artifact, _ = tiny2l_artifact
        engine_a, _ = restore(artifact, seed=1)
        engine_b, _ = restore(artifact, seed=2)
        address_a, address_b = (
            int(engine.capture_artifacts.graphs[1].columns
                .kernel_addresses[0]) for engine in (engine_a, engine_b))
        assert address_a != address_b

    def test_edges_restored(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, _ = restore(artifact)
        for batch, graph in engine.capture_artifacts.graphs.items():
            assert np.array_equal(graph.columns.edges,
                                  artifact.graph_table(batch).edges)

    def test_medusa_loading_beats_vanilla(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        vanilla = LLMEngine("Tiny-2L", Strategy.VLLM, seed=9,
                            cost_model=tiny_cost_model()).cold_start()
        _engine, medusa = restore(artifact, mode=ExecutionMode.TIMING)
        assert medusa.loading_time < vanilla.loading_time


class TestOutputEquivalence:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_replay_equals_eager_across_process_seeds(self, tiny2l_artifact,
                                                      seed):
        """The paper's validation (§4), in a fresh process per seed."""
        artifact, _ = tiny2l_artifact
        report = validate_restoration("Tiny-2L", artifact,
                                      batches=list(TINY2.capture_batch_sizes),
                                      seed=seed,
                                      cost_model=tiny_cost_model())
        assert report.passed
        assert report.max_abs_error == 0.0

    def test_restored_graph_matches_offline_graph_output(self,
                                                         tiny2l_artifact):
        """Offline capture and online restore compute the same function."""
        artifact, _ = tiny2l_artifact
        # Offline-side reference: fresh vanilla engine (same checkpoint).
        vanilla = LLMEngine("Tiny-2L", Strategy.VLLM, seed=77,
                            mode=ExecutionMode.COMPUTE,
                            cost_model=tiny_cost_model())
        vanilla.cold_start()
        restored, _ = restore(artifact, seed=78)
        ids = make_input_ids(seed=5)
        outputs = []
        for engine in (vanilla, restored):
            ctx = engine.serving_context()
            ctx.input_buffer.write(ids)
            engine.reset_kv_state()
            engine.capture_artifacts.execs[2].replay()
            outputs.append(ctx.output_buffer.read().copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])


class TestRestorationFailures:
    def test_wrong_model_rejected(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        with pytest.raises(RestorationError):
            medusa_cold_start("Tiny-4L", artifact,
                              cost_model=tiny_cost_model())

    def test_structure_prefix_divergence_detected(self, tiny2l_artifact,
                                                  tmp_path):
        def diverge(members, meta):
            meta["structure_prefix"][0][0] += 256
        with pytest.raises(RestorationError):
            restore(broken(tiny2l_artifact, tmp_path, diverge),
                    mode=ExecutionMode.TIMING)

    def test_missing_kernel_library_mapping_detected(self, tiny2l_artifact,
                                                     tmp_path):
        def drop_library(members, meta):
            # Drop a library mapping for a kernel outside the first layer.
            names = members["kernel_names"].tolist()
            kernels = members["g1_kernel"].tolist()
            victim = names[kernels[-1]]
            assert victim not in {
                names[k] for k in kernels[:meta["first_layer_nodes"]]}
            del meta["kernel_libraries"][victim]
        with pytest.raises(RestorationError):
            restore(broken(tiny2l_artifact, tmp_path, drop_library),
                    mode=ExecutionMode.TIMING)

    def test_out_of_range_indirect_index_detected(self, tiny2l_artifact,
                                                  tmp_path):
        def out_of_range(members, meta):
            stop = members["g1_param_offsets"][1]
            slot = np.flatnonzero(members["g1_param_kinds"][:stop] == 1)[0]
            members["g1_param_values"][slot] = 10**9
            members["g1_param_byte_offsets"][slot] = 0
        with pytest.raises(RestorationError):
            restore(broken(tiny2l_artifact, tmp_path, out_of_range),
                    mode=ExecutionMode.TIMING)


class TestCorruptionIsCaught:
    def test_validation_catches_swapped_pointer(self, tiny2l_artifact,
                                                tmp_path):
        """If the analysis had produced a wrong indirect index, output
        validation must notice (the §4 guarantee)."""
        from repro.errors import ValidationError
        from repro.errors import IllegalMemoryAccessError

        def swap_weights(members, meta):
            # Swap the weight pointers of the two layernorm weights:
            # outputs change but every access stays legal.
            names = members["kernel_names"].tolist()
            nodes = [node for node, kernel in
                     enumerate(members["g1_kernel"].tolist())
                     if "input_layernorm" in names[kernel]]
            assert len(nodes) >= 2
            offsets = members["g1_param_offsets"]
            kinds = members["g1_param_kinds"]
            # input, weight, output order: the second pointer of each.
            a, b = (offsets[node] + np.flatnonzero(
                kinds[offsets[node]:offsets[node + 1]] == 1)[1]
                for node in nodes[:2])
            for name in ("g1_param_values", "g1_param_byte_offsets"):
                column = members[name]
                column[[a, b]] = column[[b, a]]
        with pytest.raises((ValidationError, IllegalMemoryAccessError)):
            validate_restoration(
                "Tiny-2L", broken(tiny2l_artifact, tmp_path, swap_weights),
                batches=[1], cost_model=tiny_cost_model())
