"""Capture-runner tests: pool scoping, magic epochs, graph ordering."""

import pytest

from repro.engine import LLMEngine, Strategy
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model

TINY = get_model_config("Tiny-2L")


@pytest.fixture
def engine():
    eng = LLMEngine("Tiny-2L", Strategy.VLLM, seed=31,
                    mode=ExecutionMode.COMPUTE,
                    cost_model=tiny_cost_model())
    eng.cold_start()
    return eng


class TestCaptureArtifacts:
    def test_graph_io_allocated_before_marker(self, engine):
        artifacts = engine.capture_artifacts
        assert artifacts.graph_input.alloc_index < artifacts.capture_marker
        assert artifacts.graph_output.alloc_index < artifacts.capture_marker

    def test_capture_transients_in_graph_pool(self, engine):
        """Capture-stage activations live in the private graph pool."""
        marker = engine.capture_artifacts.capture_marker
        history = engine.process.allocator.history
        act_pools = {b.pool for b in history[marker:] if b.tag == "act"}
        assert act_pools == {"graph"}

    def test_magic_buffers_allocated_after_marker(self, engine):
        """The capture stage opens a fresh workspace epoch (§4.3): the magic
        buffers the captured graphs reference were allocated inside the
        capture window, not during the earlier profiling forwarding."""
        marker = engine.capture_artifacts.capture_marker
        qkv_name = next(
            name for name in (s.name for s in engine.catalog.library(
                "libcublas_sim").iter_kernels())
            if "qkv_proj" in name)
        spec = engine.catalog.kernel(qkv_name)
        columns = engine.capture_artifacts.graphs[1].columns
        node = next(i for i, address
                    in enumerate(columns.kernel_addresses.tolist())
                    if engine.process.driver.cu_func_get_name(address)
                    == qkv_name)
        magic_slot = int(columns.param_offsets[node]) \
            + spec.param_index("magic_a")
        magic_buffer = engine.process.allocator.resolve(
            int(columns.param_values[magic_slot]))
        assert magic_buffer.alloc_index >= marker
        assert magic_buffer.pool == "graph"

    def test_graphs_share_persistent_io(self, engine):
        """Every graph's sample node writes the same output buffer."""
        out_address = engine.capture_artifacts.graph_output.address
        for graph in engine.capture_artifacts.graphs.values():
            assert out_address in graph.columns.param_values

    def test_graph_edges_connect_all_nodes(self, engine):
        for graph in engine.capture_artifacts.graphs.values():
            touched = set(graph.columns.edges.ravel().tolist())
            assert touched == set(range(graph.num_nodes))

    def test_exec_meta_carries_batch(self, engine):
        for batch, graph in engine.capture_artifacts.graphs.items():
            assert graph.exec_meta.batch_size == batch
            assert graph.exec_meta.param_bytes == TINY.param_bytes

    def test_serving_allocations_cannot_steal_graph_memory(self, engine):
        """The private-pool property: a flood of default-pool allocations
        never claims capture-pool addresses (PyTorch graph-pool semantics)."""
        graph_addresses = {
            value
            for graph in engine.capture_artifacts.graphs.values()
            for size, value in zip(graph.columns.param_sizes.tolist(),
                                   graph.columns.param_values.tolist())
            if size == 8 and value >= 0x5000_0000_0000}
        for _ in range(50):
            buffer = engine.process.malloc(256, tag="serving")
            assert buffer.address not in graph_addresses
