"""Kernel-resolvability checks (static analogue of §5's address table).

Online restoration resolves every materialized kernel *name* to a fresh
address through three channels: first-layer graph nodes (§5.2), dlsym for
visible kernels, and module enumeration for hidden kernels whose modules a
triggering kernel forced to load (§5.1).  This pass proves — against the
model's kernel catalog, with no process — that every name has at least one
channel:

- every graph kernel name appears in the artifact's kernel-library table
  and in the catalog (MED030);
- the table agrees with the catalog about the owning library (MED033 —
  version skew between artifact and model binaries);
- every *hidden* kernel's module is covered: a first-layer node, a visible
  kernel of the same module, or a trigger plan loads it (MED031 — the
  "invisible kernel with no coverage" failure that online surfaces only as
  a RestorationError deep in the restore tail);
- trigger plans reference real nodes carrying the planned kernel (MED032).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.binfmt import LazyArtifact


def check_kernels(artifact: LazyArtifact, catalog) -> List[Diagnostic]:
    """``catalog`` is a :class:`repro.simgpu.libraries.LibraryCatalog`.

    Facts are decided per distinct kernel; only nodes of a faulty kernel
    are visited, to locate their diagnostics."""
    diagnostics: List[Diagnostic] = []
    covered_modules: Set[Tuple[str, str]] = set()
    needed_modules: Dict[Tuple[str, str], Set[str]] = {}
    names = artifact.kernel_name_table()
    libraries = artifact.kernel_libraries
    specs = [catalog.kernel(name) if name in catalog else None
             for name in names]
    faulty = np.array([libraries.get(name) is None or spec is None
                       or libraries[name] != spec.library
                       for name, spec in zip(names, specs)], dtype=bool)
    first_layer = max(artifact.first_layer_nodes, 0)

    for batch_size in artifact.batches:
        kernel_ids = artifact.graph_table(batch_size).kernel_ids
        first = set(kernel_ids[:first_layer].tolist())
        for kernel_id in np.unique(kernel_ids).tolist():
            spec = specs[kernel_id]
            if spec is not None and (kernel_id in first or not spec.hidden):
                covered_modules.add((spec.library, spec.module))
            if spec is not None and spec.hidden:
                needed_modules.setdefault((spec.library, spec.module),
                                          set()).add(names[kernel_id])
        bad_nodes = np.flatnonzero(faulty[kernel_ids])
        for node_index, kernel_id in zip(bad_nodes.tolist(),
                                         kernel_ids[bad_nodes].tolist()):
            where = f"graphs[{batch_size}].nodes[{node_index}]"
            name, spec = names[kernel_id], specs[kernel_id]
            declared_library = libraries.get(name)
            if declared_library is None:
                diagnostics.append(Diagnostic(
                    "MED030",
                    f"kernel {name} has no entry in the kernel-library "
                    f"table; dlsym fallback cannot pick a library", where))
            if spec is None:
                diagnostics.append(Diagnostic(
                    "MED030",
                    f"kernel {name} does not exist in the model's kernel "
                    f"catalog", where))
            elif declared_library not in (None, spec.library):
                diagnostics.append(Diagnostic(
                    "MED033",
                    f"kernel {name} mapped to {declared_library}, catalog "
                    f"says {spec.library}", where))

    diagnostics.extend(_check_trigger_plans(artifact, catalog,
                                            covered_modules))
    for module_key in sorted(needed_modules):
        if module_key in covered_modules:
            continue
        library, module = module_key
        kernels = sorted(needed_modules[module_key])
        diagnostics.append(Diagnostic(
            "MED031",
            f"module {module} of {library} holds hidden kernel(s) "
            f"{kernels[:4]} but no first-layer node, visible kernel, or "
            f"trigger plan loads it", f"{library}/{module}"))
    return diagnostics


def _check_trigger_plans(artifact: LazyArtifact, catalog,
                         covered_modules: Set[Tuple[str, str]]
                         ) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for plan_index, plan in enumerate(artifact.trigger_plans):
        where = f"trigger_plans[{plan_index}]"
        if plan.kernel_name not in catalog:
            diagnostics.append(Diagnostic(
                "MED032",
                f"trigger kernel {plan.kernel_name} is not in the model's "
                f"catalog", where))
            continue
        batch_size, node_index = plan.node_ref
        table = artifact.graph_table(batch_size) \
            if batch_size in artifact.batches else None
        if table is None or not 0 <= node_index < table.num_nodes:
            diagnostics.append(Diagnostic(
                "MED032",
                f"trigger plan references node ({batch_size}, {node_index}) "
                f"which the artifact does not contain", where))
            continue
        node_kernel = table.kernel_names[int(table.kernel_ids[node_index])]
        if node_kernel != plan.kernel_name:
            diagnostics.append(Diagnostic(
                "MED032",
                f"trigger plan launches {plan.kernel_name} with parameters "
                f"of node ({batch_size}, {node_index}), which belongs to "
                f"{node_kernel}", where))
            continue
        spec = catalog.kernel(plan.kernel_name)
        covered_modules.add((spec.library, spec.module))
    return diagnostics
