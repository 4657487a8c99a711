"""Pointer-bounds and use-after-free checking (static analogue of §4.1).

Every parameter restore rule of kind ``ptr`` is an *indirect index
pointer*: ``(allocation index, byte offset)``.  Online restoration
resolves it to ``buffer(alloc_index).address + offset`` without further
checks, so a corrupt artifact can silently aim a kernel at unmapped or
foreign memory.  This pass proves, against the liveness columns:

- the allocation index is in range (MED010);
- the offset lies strictly inside the aligned allocation (MED011 — the
  last byte is fine, one-past-the-end is not, matching the restorer's
  ``offset >= buffer.size`` guard);
- the referenced memory is still *mapped* once the replay completes
  (MED012).  Pool-freed and even superseded temporaries stay mapped — the
  caching allocator keeps the block — and graph kernels rewrite them
  before reading (§4.3), so only cudaFree'd or empty-cache-released
  targets are faults;
- a pointer restore sits on an 8-byte parameter slot (MED013).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.liveness import UNMAPPED, LivenessResult
from repro.core.binfmt import POINTER_CODE, LazyArtifact


def check_pointers(artifact: LazyArtifact,
                   liveness: LivenessResult) -> List[Diagnostic]:
    """Bounds- and liveness-check every indirect index pointer (§4.1):
    a vector scan per graph flags bad slots, worded one by one."""
    diagnostics: List[Diagnostic] = []
    for batch_size in artifact.batches:
        table = artifact.graph_table(batch_size)
        slots = np.flatnonzero(table.param_kinds == POINTER_CODE)
        targets = table.param_values[slots]
        offsets = table.param_byte_offsets[slots]
        sizes = table.param_sizes[slots]
        at = liveness.find(targets)
        alloc_sizes = np.zeros(at.size, dtype=np.int64)
        alloc_sizes[at >= 0] = liveness.size[at[at >= 0]]
        mapped = np.isin(targets, liveness.alloc_index[
            liveness.end_state != UNMAPPED])
        bad = (sizes != 8) | ~mapped \
            | (offsets < 0) | (offsets >= alloc_sizes)
        flagged = slots[bad]
        nodes = np.searchsorted(table.param_offsets, flagged, "right") - 1
        for node, param, kernel_id, size, alloc_index, offset, found in zip(
                nodes.tolist(),
                (flagged - table.param_offsets[nodes]).tolist(),
                table.kernel_ids[nodes].tolist(), sizes[bad].tolist(),
                targets[bad].tolist(), offsets[bad].tolist(),
                at[bad].tolist()):
            kernel_name = table.kernel_names[kernel_id]
            spot = f"graphs[{batch_size}].nodes[{node}].params[{param}]"
            if size != 8:
                diagnostics.append(Diagnostic(
                    "MED013",
                    f"pointer restore on a {size}-byte parameter of "
                    f"{kernel_name}", spot))
            if found < 0:
                diagnostics.append(Diagnostic(
                    "MED010",
                    f"pointer names allocation {alloc_index}, which the "
                    f"replayed sequence never produces", spot))
                continue
            if not 0 <= offset < liveness.size[found]:
                diagnostics.append(Diagnostic(
                    "MED011",
                    f"offset {offset} outside allocation {alloc_index} of "
                    f"{liveness.size[found]} bytes", spot))
            if liveness.end_state[found] == UNMAPPED:
                cause = ("released by empty_cache"
                         if liveness.pooled_free[found] else "cudaFree'd")
                diagnostics.append(Diagnostic(
                    "MED012",
                    f"pointer into allocation {alloc_index}, {cause} at "
                    f"replay[{liveness.end_row[found]}] and unmapped when "
                    f"the graph launches", spot))
    return diagnostics
