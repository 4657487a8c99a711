"""Coverage checks (§4.3, and the Figure-6 static guard).

Three families of invariants close out the analyzer:

- **capture marker** — it falls inside the allocation sequence (MED044);
  an artifact of another format version never gets here, because opening
  it raises :class:`~repro.errors.ArtifactError`;
- **permanent-contents coverage (§4.3)** — the classification that decided
  which buffer contents to dump is *recomputable* from the artifact alone:
  a referenced allocation born at/after the capture marker and never freed
  is permanent and must have dumped contents (MED042); dumped contents for
  anything else are orphans that would clobber live data on restore
  (MED041);
- **cross-batch layout consistency** — instances of the same kernel recur
  across layers and batch sizes with identical parameter layouts (the very
  assumption behind §4.1's majority vote).  A node whose const/ptr layout
  diverges from its kernel's dominant layout is the static signature of a
  Figure-6 false positive that slipped through (MED043).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.liveness import LivenessResult
from repro.core.binfmt import POINTER_CODE, LazyArtifact


def check_coverage(artifact: LazyArtifact,
                   liveness: LivenessResult) -> List[Diagnostic]:
    """Capture-marker, permanent-dump, and layout checks (§4.3)."""
    diagnostics: List[Diagnostic] = []
    total_allocations = liveness.alloc_index.size
    if not 0 <= artifact.capture_marker <= total_allocations:
        diagnostics.append(Diagnostic(
            "MED044",
            f"capture_marker {artifact.capture_marker} outside the "
            f"0..{total_allocations} allocation sequence; permanent-buffer "
            f"classification is undefined", "capture_marker"))
    else:
        diagnostics.extend(_check_permanent_dumps(artifact, liveness))
    diagnostics.extend(_check_layout_consistency(artifact))
    return diagnostics


def _check_permanent_dumps(artifact: LazyArtifact,
                           liveness: LivenessResult) -> List[Diagnostic]:
    """Recompute §4.3's classification and diff it against the dumps."""
    diagnostics: List[Diagnostic] = []
    tables = [artifact.graph_table(batch) for batch in artifact.batches]
    referenced = np.unique(np.concatenate(
        [table.param_values[table.param_kinds == POINTER_CODE]
         for table in tables] or [np.zeros(0, dtype=np.int64)]))
    # Unknown indices are not permanent: MED010 already flags them.
    never_freed = np.isin(referenced,
                          liveness.alloc_index[liveness.freed_row < 0])
    permanent = set(referenced[never_freed & (
        referenced >= artifact.capture_marker)].tolist())
    dumped = set(artifact.permanent_contents)
    for alloc_index in sorted(permanent - dumped):
        diagnostics.append(Diagnostic(
            "MED042",
            f"allocation {alloc_index} is permanent (referenced, born at "
            f"or after the capture marker, never freed) but its contents "
            f"were not dumped", f"permanent_contents[{alloc_index}]"))
    for alloc_index in sorted(dumped - permanent):
        diagnostics.append(Diagnostic(
            "MED041",
            f"dumped contents exist for allocation {alloc_index}, which "
            f"the replay classifies as non-permanent; restoring them would "
            f"overwrite memory the loading stages own",
            f"permanent_contents[{alloc_index}]"))
    return diagnostics


def _check_layout_consistency(artifact: LazyArtifact) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    # kernel name -> layout signature -> [(batch, node_index), ...]; a
    # node's signature is its slice of one byte per slot (1: pointer).
    layouts: Dict[str, Dict[bytes, List[Tuple[int, int]]]] = {}
    for batch_size in artifact.batches:
        table = artifact.graph_table(batch_size)
        kinds = (table.param_kinds == POINTER_CODE).tobytes()
        offsets = table.param_offsets.tolist()
        for node_index, (kernel_id, start, stop) in enumerate(zip(
                table.kernel_ids.tolist(), offsets, offsets[1:])):
            layouts.setdefault(table.kernel_names[kernel_id], {}).setdefault(
                kinds[start:stop], []).append((batch_size, node_index))
    for kernel_name, by_signature in sorted(layouts.items()):
        if len(by_signature) == 1:
            continue
        dominant = max(by_signature.values(), key=len)
        for signature, instances in sorted(
                (tuple("ptr" if kind else "const" for kind in signature),
                 instances) for signature, instances in by_signature.items()):
            if instances is dominant:
                continue
            batch_size, node_index = instances[0]
            diagnostics.append(Diagnostic(
                "MED043",
                f"kernel {kernel_name}: {len(instances)} instance(s) carry "
                f"layout {'/'.join(signature)} while {len(dominant)} carry "
                f"the dominant one — a Figure-6-style misclassification",
                f"graphs[{batch_size}].nodes[{node_index}]"))
    return diagnostics
