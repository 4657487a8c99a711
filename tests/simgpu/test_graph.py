"""Graph structure tests: edges, topological order, node mutation."""

import numpy as np
import pytest

from repro.errors import InvalidValueError
from repro.simgpu.graph import (
    CudaGraph,
    CudaGraphNode,
    GraphColumns,
    GraphExecMeta,
    PackedParams,
)
from repro.simgpu.kernels import KernelParam


def node(addr=0x1000):
    return CudaGraphNode(kernel_address=addr,
                         params=[KernelParam(8, 0xDEAD), KernelParam(4, 7)])


class TestGraphStructure:
    def test_add_node_returns_index(self):
        graph = CudaGraph()
        assert graph.add_node(node()) == 0
        assert graph.add_node(node()) == 1
        assert graph.num_nodes == 2

    def test_add_edge_validates_range(self):
        graph = CudaGraph()
        graph.add_node(node())
        with pytest.raises(InvalidValueError):
            graph.add_edge(0, 5)

    def test_self_edge_rejected(self):
        graph = CudaGraph()
        graph.add_node(node())
        with pytest.raises(InvalidValueError):
            graph.add_edge(0, 0)

    def test_topological_order_respects_edges(self):
        graph = CudaGraph()
        for _ in range(4):
            graph.add_node(node())
        graph.add_edge(2, 0)
        graph.add_edge(0, 1)
        graph.add_edge(1, 3)
        order = graph.topological_order()
        assert order.index(2) < order.index(0) < order.index(1) < order.index(3)

    def test_cycle_detection(self):
        graph = CudaGraph()
        graph.add_node(node())
        graph.add_node(node())
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        with pytest.raises(InvalidValueError):
            graph.topological_order()

    def test_deterministic_tie_breaking(self):
        graph = CudaGraph()
        for _ in range(5):
            graph.add_node(node())
        # No edges: order must be node-index order.
        assert graph.topological_order() == [0, 1, 2, 3, 4]


class TestNodeMutation:
    def test_set_param_preserves_size(self):
        n = node()
        n.set_param(0, 0xBEEF)
        assert n.params[0].value == 0xBEEF
        assert n.params[0].size == 8

    def test_param_sizes(self):
        assert node().param_sizes() == (8, 4)


class TestExecMeta:
    def test_defaults(self):
        meta = GraphExecMeta()
        assert meta.param_bytes == 0
        assert meta.num_tokens == 1


def columns():
    return GraphColumns(
        kernel_addresses=np.array([0x1000, 0x2000], dtype=np.int64),
        param_sizes=np.array([8, 4, 8], dtype=np.int64),
        param_values=np.array([10, 20, 30], dtype=np.int64),
        param_offsets=np.array([0, 2, 3], dtype=np.int64),
        batch_dims=np.array([4, 4], dtype=np.int64),
        edges=np.array([[0, 1]], dtype=np.int64),
    )


class TestColumnGraph:
    def test_structure_reads_no_node(self):
        graph = CudaGraph.from_columns(columns(), GraphExecMeta(batch_size=4))
        assert graph.num_nodes == 2
        assert graph.topological_order() == [0, 1]
        assert graph.nodes_built == 0

    def test_nodes_built_once_from_columns(self):
        graph = CudaGraph.from_columns(columns(), GraphExecMeta())
        nodes = graph.nodes
        assert graph.nodes is nodes
        assert graph.nodes_built == 2
        assert [n.kernel_address for n in nodes] == [0x1000, 0x2000]
        assert [[(p.size, p.value) for p in n.params] for n in nodes] == \
            [[(8, 10), (4, 20)], [(8, 30)]]
        assert all(n.launch_dims == {"batch_size": 4} for n in nodes)
        assert isinstance(nodes[0].params, PackedParams)
        assert graph.edges == {(0, 1)}
        assert graph.edges is graph.edges

    def test_set_param_writes_through_to_the_column(self):
        cols = columns()
        graph = CudaGraph.from_columns(cols, GraphExecMeta())
        graph.nodes[1].set_param(0, 99)
        assert cols.param_values[2] == 99
        assert graph.nodes[1].params[0] == KernelParam(8, 99)

    def test_added_node_and_edge_extend_the_built_graph(self):
        graph = CudaGraph.from_columns(columns(), GraphExecMeta())
        assert graph.add_node(node()) == 2
        graph.add_edge(1, 2)
        assert graph.num_nodes == 3
        assert graph.topological_order() == [0, 1, 2]
