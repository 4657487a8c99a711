"""Model configuration and the Table 1 node-count arithmetic.

The paper reports, per model, the total number of CUDA graph nodes summed
over the 35 captured batch sizes (Table 1).  We decompose that total into a
layer-repeated kernel count plus prologue/epilogue kernels:

    nodes(batch) = num_layers * kernels_per_layer + epilogue_kernels
                   (+1 reduce kernel for the ``remainder`` largest batches)

    total = 35 * (L * k + c) + remainder          — exactly Table 1.

``kernels_per_layer`` (k) and ``epilogue_kernels`` (c) are solved from the
published total and the model's real layer count, so the reproduction's
graphs have both the right totals and the right repetitive layer structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import InvalidValueError

#: vLLM's default capture list: batch sizes 1, 2, 4 and 8..256 step 8 — 35
#: sizes, matching "capturing 35 different batch sizes" (§7.1).
CAPTURE_BATCH_SIZES: Tuple[int, ...] = (1, 2, 4) + tuple(range(8, 257, 8))

#: Per-layer kernel template, in launch order.  A model with
#: ``kernels_per_layer = k`` uses the first k entries (k >= MIN_LAYER_KERNELS).
#: Exactly one of these (qkv_proj) is a magic-workspace cuBLAS kernel, so for
#: k = 11 about 9% of a graph's kernels need permanent buffers — the paper's
#: measured fraction (§4.3).
LAYER_KERNEL_TEMPLATE: Tuple[str, ...] = (
    "input_layernorm",    # visible, libtorch
    "qkv_proj",           # hidden gemm_magic, libcublas
    "rotary_embed",       # visible, libvllm
    "paged_attention",    # visible, libvllm
    "o_proj",             # hidden gemm, libcublas
    "attn_residual",      # visible, libtorch
    "post_layernorm",     # visible, libtorch
    "gate_up_proj",       # hidden gemm, libcublas
    "silu_and_mul",       # visible, libtorch
    "down_proj",          # hidden gemm, libcublas
    "mlp_residual",       # visible, libtorch
    "attn_output_scale",  # visible, libtorch (wider architectures)
    "extra_layernorm",    # visible, libtorch (wider architectures)
)

MIN_LAYER_KERNELS = 6
MAX_LAYER_KERNELS = len(LAYER_KERNEL_TEMPLATE)

#: Layer kernels that read a per-layer weight buffer.
WEIGHTED_LAYER_KERNELS = frozenset({
    "input_layernorm", "qkv_proj", "o_proj", "post_layernorm",
    "gate_up_proj", "down_proj", "extra_layernorm",
})

#: Fixed prologue/epilogue kernels every model has (in launch order:
#: embed runs before the layers; the rest after).
PROLOGUE_KERNELS: Tuple[str, ...] = ("embed_tokens",)
EPILOGUE_BASE_KERNELS: Tuple[str, ...] = ("final_layernorm", "lm_head", "sample")


@dataclass(frozen=True)
class KernelTemplate:
    """The resolved kernel plan of one model."""

    layer_kernels: Tuple[str, ...]      # repeated num_layers times
    epilogue_aux: int                   # number of aux copy kernels appended
    reduce_batches: Tuple[int, ...]     # batch sizes with the +1 reduce kernel

    @property
    def fixed_kernels(self) -> int:
        """Prologue + epilogue kernel count (the 'c' of the decomposition)."""
        return (len(PROLOGUE_KERNELS) + len(EPILOGUE_BASE_KERNELS)
                + self.epilogue_aux)


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one model (paper Table 1 plus architecture)."""

    name: str
    family: str                 # falcon / llama / qwen / yi / tiny
    param_bytes: int            # Table 1 "parameter size"
    num_layers: int             # the real model's layer count
    hidden_size: int            # the real model's hidden dimension
    vocab_size: int
    total_graph_nodes: int      # Table 1 "CUDA graph nodes" over 35 batches
    capture_batch_sizes: Tuple[int, ...] = CAPTURE_BATCH_SIZES
    max_seq_len: int = 4096
    checkpoint_seed: int = 0    # weights identity (fixed per model, not per run)

    def __post_init__(self) -> None:
        # Validate that the published node total decomposes.
        self.kernel_template()

    # -- node-count decomposition ------------------------------------------

    def kernel_template(self) -> KernelTemplate:
        """Solve (k, c, remainder) from the published node total."""
        num_batches = len(self.capture_batch_sizes)
        base = self.total_graph_nodes // num_batches
        remainder = self.total_graph_nodes - num_batches * base
        kernels_per_layer = min(MAX_LAYER_KERNELS, base // self.num_layers)
        fixed = base - kernels_per_layer * self.num_layers
        min_fixed = len(PROLOGUE_KERNELS) + len(EPILOGUE_BASE_KERNELS)
        while fixed < min_fixed and kernels_per_layer > MIN_LAYER_KERNELS:
            kernels_per_layer -= 1
            fixed = base - kernels_per_layer * self.num_layers
        if kernels_per_layer < MIN_LAYER_KERNELS or fixed < min_fixed:
            raise InvalidValueError(
                f"{self.name}: cannot decompose {self.total_graph_nodes} nodes "
                f"into {self.num_layers} layers of >= {MIN_LAYER_KERNELS} kernels")
        reduce_batches = tuple(sorted(self.capture_batch_sizes)[-remainder:]
                               if remainder else ())
        return KernelTemplate(
            layer_kernels=LAYER_KERNEL_TEMPLATE[:kernels_per_layer],
            epilogue_aux=fixed - min_fixed,
            reduce_batches=reduce_batches,
        )

    def nodes_for_batch(self, batch_size: int) -> int:
        """Graph node count for one captured batch size."""
        template = self.kernel_template()
        base = (self.num_layers * len(template.layer_kernels)
                + template.fixed_kernels)
        return base + (1 if batch_size in template.reduce_batches else 0)

    @property
    def num_params(self) -> float:
        """Approximate parameter count (fp16 storage)."""
        return self.param_bytes / 2.0

    def weight_buffer_count(self) -> int:
        """Number of weight buffers structure initialization allocates."""
        template = self.kernel_template()
        per_layer = sum(1 for k in template.layer_kernels
                        if k in WEIGHTED_LAYER_KERNELS)
        return self.num_layers * per_layer + 3   # + embed, final_norm, lm_head
