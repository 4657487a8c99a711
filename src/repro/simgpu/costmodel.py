"""Analytic timing model — the single source of truth for simulated latency.

Every constant here is calibrated so the Qwen1.5-4B loading-phase breakdown
matches the paper's measured numbers (Figure 8: 0.85 s structure init,
0.39 s weight loading, 0.21 s tokenizer, 0.50 s KV-cache initialization,
0.90 s capturing; 2.85 s total), and the up-to-2.4x CUDA-graph speedup
(Figure 3) falls where the paper observed it.  All other models scale
through the same formulas, which reproduces the cross-model shape of
Figures 2 and 7.  See DESIGN.md §5.

The decode-step model deserves a word.  A decode iteration on a resident
model is memory-bandwidth bound on the GPU side; the CPU adds a
*non-overlapped* per-kernel launch gap when kernels are launched one by one:

    eager decode step  = t_gpu(batch) + n_kernels * launch_gap
    graph  decode step = t_gpu(batch) + graph_launch_overhead

so the CUDA-graph speedup is  1 + n_kernels * launch_gap / t_gpu, largest
for small models at small batch — matching the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidValueError


@dataclass(frozen=True)
class GpuProperties:
    """Static properties of the simulated device (default: A100-40GB SXM4)."""

    name: str = "A100-SXM4-40GB"
    total_memory_bytes: int = 40 * 1024**3
    # Effective sustained throughput, not peak datasheet numbers.
    effective_flops: float = 1.52e14          # ~150 TFLOP/s fp16 w/ good MFU
    effective_mem_bandwidth: float = 1.55e12  # ~80% of 1.94 TB/s HBM2e
    h2d_bandwidth: float = 20.4e9             # pipelined SSD->host->device path


#: The paper's testbed GPU (the default everywhere).
A100_40GB = GpuProperties()

#: A newer-generation profile, for cross-GPU-type experiments: more memory,
#: higher sustained compute/bandwidth.  Artifacts are keyed per GPU type
#: (§3), so materializations from one profile never restore on the other.
H100_80GB = GpuProperties(
    name="H100-SXM5-80GB",
    total_memory_bytes=80 * 1024**3,
    effective_flops=4.0e14,
    effective_mem_bandwidth=2.8e12,
    h2d_bandwidth=25e9,
)


@dataclass(frozen=True)
class CostModel:
    """All timing constants and derived cost formulas (simulated seconds)."""

    gpu: GpuProperties = field(default_factory=GpuProperties)

    # --- kernel launching -------------------------------------------------
    launch_gap: float = 14.5e-6        # non-overlapped CPU cost per eager launch
    graph_launch_overhead: float = 30e-6   # one CPU launch for a whole graph
    kernel_min_time: float = 1.5e-6    # floor for a single kernel's GPU time
    library_init_time: float = 45e-3   # first-touch init (e.g. cuBLAS handle)

    # --- stream capture / graph construction ------------------------------
    capture_record_per_node: float = 6.8e-6  # driver records one node
    instantiate_per_node: float = 3.5e-6     # cudaGraphInstantiate, per node

    # --- loading-phase stages ---------------------------------------------
    structure_init_base: float = 0.30        # python module instantiation
    structure_init_per_byte: float = 6.92e-11  # tensor construction + cudaMalloc
    tokenizer_base: float = 0.06
    tokenizer_per_vocab_entry: float = 1.0e-6
    kv_profile_tokens: int = 8192            # max_num_batched_tokens profiled
    kv_block_alloc_time: float = 0.02        # allocate KV blocks given free mem
    weight_kv_interference: float = 0.08     # async H2D blocked by profiling (§7.3)
    runtime_init_time: float = 0.83          # container/python start (Fig. 1: ~22%)
    first_token_extra: float = 0.07          # "generate first token" tail (Fig. 1)

    # --- Medusa online restoration ----------------------------------------
    artifact_load_base: float = 0.05         # open + index the artifact store
    artifact_deserialize_per_node: float = 10e-6
    restore_fill_per_node: float = 7e-6      # fill pointers/kernel addr into node
    alloc_replay_per_event: float = 1.5e-6   # replay one (de)allocation
    module_enumerate_per_kernel: float = 3e-6
    kv_restore_time: float = 0.02            # read materialized free-mem value
    trigger_timeout_seconds: float = 0.25    # watchdog budget per trigger launch

    # --- Medusa offline phase ----------------------------------------------
    interception_per_event: float = 40e-6    # hooked allocation/launch overhead
    graph_dump_per_node: float = 150e-6      # inspect + serialize one node
    analysis_per_node: float = 2.05e-3       # trace-based backward matching
    artifact_write_base: float = 0.35

    # ----------------------------------------------------------------------
    # Derived formulas
    # ----------------------------------------------------------------------

    def contention_penalty(self, key: str) -> float:
        """Resolve a LoadPlan contention-penalty key to its constant.

        Cold-start plans declare cross-lane interference symbolically
        (e.g. ``"weight_kv_interference"``); the scheduler resolves the
        key through this hook so the penalty stays a calibrated cost-model
        constant rather than a number baked into a plan.
        """
        value = getattr(self, key, None)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidValueError(
                f"cost model has no contention penalty named {key!r}")
        return float(value)

    def structure_init_time(self, param_bytes: int) -> float:
        """Stage 1: instantiate model structure + allocate weight tensors."""
        return self.structure_init_base + self.structure_init_per_byte * param_bytes

    def tokenizer_load_time(self, vocab_size: int) -> float:
        """Stage 3: load and build the tokenizer."""
        return self.tokenizer_base + self.tokenizer_per_vocab_entry * vocab_size

    def forward_gpu_time(self, param_bytes: int, num_tokens: int) -> float:
        """GPU time of one forwarding over ``num_tokens`` total batched tokens.

        max(memory-bound weight read, compute-bound GEMM time).  ``num_tokens``
        is batch_size for a decode step, or the full prompt length for prefill.
        """
        num_params = param_bytes / 2  # fp16
        compute = 2.0 * num_params * num_tokens / self.gpu.effective_flops
        memory = param_bytes / self.gpu.effective_mem_bandwidth
        return max(compute, memory)

    def eager_step_time(self, param_bytes: int, num_tokens: int,
                        num_kernels: int) -> float:
        """One forwarding launched kernel-by-kernel (no CUDA graph)."""
        return (self.forward_gpu_time(param_bytes, num_tokens)
                + num_kernels * self.launch_gap)

    def graph_step_time(self, param_bytes: int, num_tokens: int) -> float:
        """One forwarding replayed as a CUDA graph."""
        return (self.forward_gpu_time(param_bytes, num_tokens)
                + self.graph_launch_overhead)

    def capture_forward_time(self, num_kernels: int) -> float:
        """Capturing forwarding: kernels are recorded, not executed."""
        return num_kernels * (self.launch_gap + self.capture_record_per_node)

    def instantiate_time(self, num_kernels: int) -> float:
        return num_kernels * self.instantiate_per_node
