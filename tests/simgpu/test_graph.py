"""Graph structure tests: columns, edges, topological order."""

import numpy as np
import pytest

from repro.errors import InvalidValueError
from repro.simgpu.graph import CudaGraph, GraphColumns, GraphExecMeta


def graph(num_nodes, edges=(), meta=None):
    """A graph of ``num_nodes`` two-slot nodes with the given edges."""
    return CudaGraph(GraphColumns(
        kernel_addresses=np.arange(num_nodes, dtype=np.int64) + 0x1000,
        param_sizes=np.tile(np.array([8, 4], dtype=np.int64), num_nodes),
        param_values=np.arange(2 * num_nodes, dtype=np.int64),
        param_offsets=np.arange(0, 2 * num_nodes + 1, 2, dtype=np.int64),
        batch_dims=np.full(num_nodes, 4, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
    ), meta or GraphExecMeta())


class TestGraphStructure:
    def test_num_nodes_reads_the_address_column(self):
        assert graph(3).num_nodes == 3
        assert graph(0).num_nodes == 0

    def test_topological_order_respects_edges(self):
        order = graph(4, [(2, 0), (0, 1), (1, 3)]).topological_order()
        assert order.index(2) < order.index(0) < order.index(1) < order.index(3)

    def test_cycle_detection(self):
        with pytest.raises(InvalidValueError, match="cycle"):
            graph(2, [(0, 1), (1, 0)]).topological_order()

    def test_self_edge_is_a_cycle(self):
        with pytest.raises(InvalidValueError, match="cycle"):
            graph(2, [(0, 1), (1, 1)]).topological_order()

    @pytest.mark.parametrize("edge", [(0, 5), (-1, 0), (2, 2)])
    def test_edge_out_of_node_range(self, edge):
        with pytest.raises(InvalidValueError, match="out of node range"):
            graph(2, [edge]).topological_order()

    def test_deterministic_tie_breaking(self):
        # No edges: order must be node-index order.
        assert graph(5).topological_order() == [0, 1, 2, 3, 4]
        # Ready nodes leave in index order, whatever the edge order.
        assert graph(4, [(3, 0), (1, 0), (3, 2)]).topological_order() == \
            [1, 3, 0, 2]

    def test_duplicate_edges_count_once_each_way(self):
        assert graph(3, [(0, 2), (0, 2), (1, 2)]).topological_order() == \
            [0, 1, 2]


class TestExecMeta:
    def test_defaults(self):
        meta = GraphExecMeta()
        assert meta.param_bytes == 0
        assert meta.num_tokens == 1

    def test_graph_carries_its_meta(self):
        meta = GraphExecMeta(batch_size=4)
        assert graph(2, meta=meta).exec_meta is meta
