#!/usr/bin/env python
"""Deep dive: what Medusa actually materializes and how restoration works.

Walks the mechanism end to end on a tiny 2-layer model with *real compute*
(COMPUTE mode), printing the pieces the paper's Sections 4-6 describe:

- the intercepted allocation sequence and the indirect index pointers;
- the copy-free buffer contents classification (weights / temporary /
  permanent magic buffers);
- the kernel name table, with hidden cuBLAS-style kernels that dlsym cannot
  resolve and first-layer triggering handles;
- a cross-process restore whose graph replay output is compared
  bit-for-bit against eager forwarding (the paper's validation).
"""

import numpy as np

from repro import CostModel, GpuProperties
from repro.core.binfmt import POINTER_CODE
from repro.core.offline import run_offline
from repro.core.online import medusa_cold_start
from repro.core.validation import make_input_ids, validate_restoration
from repro.models.kernels_catalog import build_catalog
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode

MODEL = "Tiny-2L"


def main() -> None:
    config = get_model_config(MODEL)
    cost_model = CostModel(gpu=GpuProperties(
        name="Tiny-GPU", total_memory_bytes=256 * 1024**2))

    print(f"== Offline phase on {MODEL} "
          f"({config.num_layers} layers, batch sizes "
          f"{config.capture_batch_sizes})")
    artifact, report = run_offline(MODEL, seed=1,
                                   mode=ExecutionMode.COMPUTE,
                                   cost_model=cost_model)
    stats = artifact.stats
    print(f"   graphs: {len(artifact.batches)}, "
          f"nodes: {artifact.total_nodes}, "
          f"replayable allocation events: {artifact.total_replay_events}")
    print(f"   pointer params: {int(stats['pointer_params'])}, "
          f"constants: {int(stats['const_params'])}, "
          f"interior (KV) pointers: {int(stats['interior_pointers'])}")
    print(f"   buffer classes -> pre-capture: "
          f"{int(stats['pre_capture_buffers'])}, temporary: "
          f"{int(stats['temporary_buffers'])}, permanent: "
          f"{int(stats['permanent_buffers'])} "
          f"({int(stats['permanent_bytes'])} bytes dumped)")

    print("\n== A node under the microscope (batch 1, the qkv GEMM)")
    # The artifact is packed: node i owns parameter slots
    # param_offsets[i]:param_offsets[i + 1] of the flat columns.
    table = artifact.graph_table(1)
    catalog = build_catalog(config)
    names = table.node_kernel_names()
    node_index = next(i for i, name in enumerate(names) if "qkv_proj" in name)
    spec = catalog.kernel(names[node_index])
    print(f"   kernel: {names[node_index]}")
    print(f"   hidden from the symbol table: {spec.hidden} "
          f"(reachable only via host entry {spec.host_entry!r})")
    start, stop = table.param_offsets[node_index:node_index + 2].tolist()
    for slot, kind, value, offset in zip(
            spec.params, table.param_kinds[start:stop].tolist(),
            table.param_values[start:stop].tolist(),
            table.param_byte_offsets[start:stop].tolist()):
        if kind == POINTER_CODE:
            print(f"   param {slot.role:10s} -> indirect index pointer "
                  f"(allocation #{value}, offset {offset})")
        else:
            print(f"   param {slot.role:18s} -> constant {value}")

    print("\n== Online restore in a fresh process (new heap, new ASLR)")
    engine, cold_report = medusa_cold_start(
        MODEL, artifact, seed=2, mode=ExecutionMode.COMPUTE,
        cost_model=cost_model)
    restored = engine.capture_artifacts.graphs[1].columns
    address = int(restored.kernel_addresses[node_index])
    print(f"   restored kernel address: 0x{address:x} "
          f"(process-local; different every launch)")

    print("\n== Validation: replay vs eager forwarding, bit for bit")
    validation = validate_restoration(
        MODEL, artifact, batches=list(config.capture_batch_sizes), seed=3,
        cost_model=cost_model)
    print(f"   batches checked: {validation.batches_checked}, "
          f"max abs error: {validation.max_abs_error}")

    ctx = engine.serving_context()
    ctx.input_buffer.write(make_input_ids(seed=4))
    engine.reset_kv_state()
    engine.decode_step(1)
    print(f"   sampled one-hot output rows:\n"
          f"{np.array2string(ctx.output_buffer.read(), precision=0)}")


if __name__ == "__main__":
    main()
