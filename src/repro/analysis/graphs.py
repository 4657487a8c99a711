"""Graph-topology checks over materialized CUDA graphs (§5, §2.5).

A restored graph is instantiated straight from the artifact's node list and
dependency edges; nothing downstream re-checks them.  This pass proves each
graph is structurally sound:

- every dependency edge references a valid node index (MED020);
- the edges form a DAG — instantiation order exists (MED021);
- no batch size exceeds the model's largest capture batch size, and every
  node launches at its graph's batch size (MED025) — a restore and its
  validation size buffers and inputs by them (the loader refuses a batch
  size below 1);
- the first-layer node count used for triggering (§5.2) is within bounds
  (MED023) and selects the *same* kernel-name prefix in every batch size's
  graph (MED024) — online warm-up launches ``nodes[:first_layer_nodes]`` of
  each graph, so a divergent prefix means the triggering plan warms the
  wrong kernels for some batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.binfmt import GraphTable, LazyArtifact


def check_topology(artifact: LazyArtifact,
                   max_batch: Optional[int] = None) -> List[Diagnostic]:
    """Edge validity, DAG-ness, batch sizes and first-layer consistency
    checks (§5).  ``max_batch`` is the model's largest capture batch size;
    None (a model outside the zoo) leaves batch sizes unbounded."""
    diagnostics: List[Diagnostic] = []
    for batch_size in artifact.batches:
        table = artifact.graph_table(batch_size)
        where = f"graphs[{batch_size}]"
        diagnostics.extend(_check_edges(table, where))
        diagnostics.extend(_check_batch(table, batch_size, max_batch, where))
    diagnostics.extend(_check_first_layer(artifact))
    return diagnostics


def _check_batch(table: GraphTable, batch_size: int,
                 max_batch: Optional[int], where: str) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if max_batch is not None and batch_size > max_batch:
        diagnostics.append(Diagnostic(
            "MED025", f"batch size {batch_size} is outside the model's "
            f"capture batch sizes 1..{max_batch}", where))
    wrong = np.flatnonzero(table.batch_dims != batch_size)
    if wrong.size:
        node = int(wrong[0])
        diagnostics.append(Diagnostic(
            "MED025",
            f"{wrong.size} node(s) launch at another batch dim than the "
            f"graph's {batch_size}; the first at "
            f"{int(table.batch_dims[node])}", f"{where}.nodes[{node}]"))
    return diagnostics


def _check_edges(table: GraphTable, where: str) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    num_nodes = table.num_nodes
    edges = table.edges
    valid = ((edges >= 0) & (edges < num_nodes)).all(axis=1)
    for edge_index, (src, dst) in zip(np.flatnonzero(~valid).tolist(),
                                      edges[~valid].tolist()):
        diagnostics.append(Diagnostic(
            "MED020",
            f"edge ({src}, {dst}) references nodes outside "
            f"0..{num_nodes - 1}", f"{where}.edges[{edge_index}]"))
    src, dst = edges[valid].T
    if (src < dst).all():
        return diagnostics     # every edge points forward: a DAG
    # Kahn's algorithm over the valid edges: leftovers mean a cycle.
    adjacency: Dict[int, List[int]] = {}
    indegree = np.bincount(dst, minlength=num_nodes).tolist()
    for source, target in zip(src.tolist(), dst.tolist()):
        adjacency.setdefault(source, []).append(target)
    ready = [n for n in range(num_nodes) if indegree[n] == 0]
    visited = 0
    while ready:
        node = ready.pop()
        visited += 1
        for target in adjacency.get(node, ()):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    if visited < num_nodes:
        cyclic = sorted(n for n in range(num_nodes) if indegree[n] > 0)
        diagnostics.append(Diagnostic(
            "MED021",
            f"dependency edges are cyclic through nodes "
            f"{cyclic[:8]}{'...' if len(cyclic) > 8 else ''}",
            f"{where}.edges"))
    return diagnostics


def _check_first_layer(artifact: LazyArtifact) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if not artifact.batches:
        return diagnostics
    tables = {batch: artifact.graph_table(batch)
              for batch in artifact.batches}
    count = artifact.first_layer_nodes
    smallest = min(table.num_nodes for table in tables.values())
    if not 1 <= count <= smallest:
        diagnostics.append(Diagnostic(
            "MED023",
            f"first_layer_nodes is {count}; must be between 1 and the "
            f"smallest graph's node count ({smallest})",
            "first_layer_nodes"))
        return diagnostics
    names = artifact.kernel_name_table()
    reference_batch = min(tables)
    reference = [names[k] for k in
                 tables[reference_batch].kernel_ids[:count].tolist()]
    for batch_size, table in tables.items():
        prefix = [names[k] for k in table.kernel_ids[:count].tolist()]
        if prefix != reference:
            mismatch = next(i for i, (a, b) in enumerate(zip(prefix,
                                                             reference))
                            if a != b)
            diagnostics.append(Diagnostic(
                "MED024",
                f"first-layer prefix diverges from batch "
                f"{reference_batch}'s at node {mismatch} "
                f"({prefix[mismatch]} vs {reference[mismatch]})",
                f"graphs[{batch_size}].nodes[{mismatch}]"))
    return diagnostics
