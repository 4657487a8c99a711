"""Per-model kernel catalogs: the libraries a model's forwarding launches.

Each model gets three simulated libraries, mirroring a vLLM deployment:

- ``libtorch_sim``  — visible elementwise/norm/embedding kernels (no init);
- ``libvllm_sim``   — visible rotary/paged-attention/reduce kernels;
- ``libcublas_sim`` — *hidden* GEMM kernels reachable only through the
  exported ``cublasGemmEx`` host entry; the library performs one-time
  initialization (implicit synchronization) on first use, and its ``qkv``
  GEMM additionally needs per-kernel magic workspace buffers (§4.3).

Kernel (mangled) names embed the model slug, so every model's graphs carry
distinct symbols, as different model binaries would.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.errors import InvalidValueError
from repro.models.config import (
    EPILOGUE_BASE_KERNELS,
    PROLOGUE_KERNELS,
    ModelConfig,
)
from repro.simgpu.kernels import KernelSpec, ParamKind, ParamSpec
from repro.simgpu.libraries import DynamicLibrary, LibraryCatalog
from repro.simgpu.modules import CudaModule

PTR = ParamKind.POINTER
C32 = ParamKind.CONST32
C64 = ParamKind.CONST64

LIBTORCH = "libtorch_sim"
LIBVLLM = "libvllm_sim"
LIBCUBLAS = "libcublas_sim"

#: (library, module, op, roles) per template kernel.  Roles list the pointer
#: and constant parameters in ABI order; "magic" expands to the 4-slot magic
#: suffix.  hidden/needs_magic are per-entry flags.
_KERNEL_SHAPES: Dict[str, dict] = {
    "input_layernorm": dict(library=LIBTORCH, module="mod_norm",
                            op="layernorm", weighted=True),
    "qkv_proj": dict(library=LIBCUBLAS, module="mod_gemm_qkv",
                     op="gemm_magic", weighted=True, hidden=True,
                     needs_magic=True, host_entry="cublasGemmEx"),
    "rotary_embed": dict(library=LIBVLLM, module="mod_rope", op="rotary"),
    "paged_attention": dict(library=LIBVLLM, module="mod_attn",
                            op="attention", kv=True),
    "o_proj": dict(library=LIBCUBLAS, module="mod_gemm_attn", op="gemm",
                   weighted=True, hidden=True, host_entry="cublasGemmEx"),
    "attn_residual": dict(library=LIBTORCH, module="mod_elementwise",
                          op="residual_add", binary=True),
    "post_layernorm": dict(library=LIBTORCH, module="mod_norm",
                           op="layernorm", weighted=True),
    "gate_up_proj": dict(library=LIBCUBLAS, module="mod_gemm_mlp", op="gemm",
                         weighted=True, hidden=True,
                         host_entry="cublasGemmEx"),
    "silu_and_mul": dict(library=LIBTORCH, module="mod_act", op="silu_mul",
                         binary=True),
    "down_proj": dict(library=LIBCUBLAS, module="mod_gemm_mlp", op="gemm",
                      weighted=True, hidden=True, host_entry="cublasGemmEx"),
    "mlp_residual": dict(library=LIBTORCH, module="mod_elementwise",
                         op="residual_add", binary=True),
    "attn_output_scale": dict(library=LIBTORCH, module="mod_elementwise",
                              op="copy"),
    "extra_layernorm": dict(library=LIBTORCH, module="mod_norm",
                            op="layernorm", weighted=True),
    "embed_tokens": dict(library=LIBTORCH, module="mod_embed", op="embed",
                         weighted=True),
    "final_layernorm": dict(library=LIBTORCH, module="mod_norm",
                            op="layernorm", weighted=True),
    "lm_head": dict(library=LIBCUBLAS, module="mod_gemm_mlp", op="gemm",
                    weighted=True, hidden=True, host_entry="cublasGemmEx"),
    "sample": dict(library=LIBTORCH, module="mod_sample", op="sample"),
    "aux": dict(library=LIBTORCH, module="mod_aux", op="copy"),
    "batch_reduce": dict(library=LIBVLLM, module="mod_reduce", op="copy"),
}


def model_slug(config: ModelConfig) -> str:
    """A lowercase identifier embedded in the model's kernel symbols."""
    return re.sub(r"[^a-z0-9]", "", config.name.lower())


def mangled_name(config: ModelConfig, kernel_key: str) -> str:
    """A mangled-looking, model-unique kernel symbol."""
    slug = model_slug(config)
    return f"_ZN{len(slug)}{slug}{len(kernel_key)}{kernel_key}Ev"


def _param_specs(shape: dict) -> Tuple[ParamSpec, ...]:
    params: List[ParamSpec] = [ParamSpec(PTR, "input")]
    if shape.get("binary"):
        params.append(ParamSpec(PTR, "input_b"))
    if shape.get("weighted"):
        params.append(ParamSpec(PTR, "weight"))
    if shape.get("kv"):
        params.append(ParamSpec(PTR, "kv"))
    params.append(ParamSpec(PTR, "output"))
    if shape.get("needs_magic"):
        params.extend((
            ParamSpec(PTR, "magic_a"),
            ParamSpec(PTR, "magic_b"),
            ParamSpec(C32, "magic_a_expected"),
            ParamSpec(C32, "magic_b_expected"),
            ParamSpec(C64, "seed"),
        ))
    op = shape["op"]
    if op == "layernorm":
        params.append(ParamSpec(C32, "n"))
    elif op == "rotary":
        params.append(ParamSpec(C32, "rot_steps"))
    elif op == "attention":
        params.append(ParamSpec(C32, "layer_idx"))
    return tuple(params)


def kernel_spec(config: ModelConfig, kernel_key: str) -> KernelSpec:
    """The KernelSpec of one template kernel instantiated for ``config``."""
    base_key = "aux" if kernel_key.startswith("aux_") else kernel_key
    shape = _KERNEL_SHAPES.get(base_key)
    if shape is None:
        raise InvalidValueError(f"unknown kernel template key {kernel_key!r}")
    return KernelSpec(
        name=mangled_name(config, kernel_key),
        library=shape["library"],
        module=shape["module"],
        op=shape["op"],
        params=_param_specs(shape),
        hidden=bool(shape.get("hidden")),
        host_entry=shape.get("host_entry"),
        needs_magic=bool(shape.get("needs_magic")),
    )


def all_kernel_keys(config: ModelConfig) -> List[str]:
    """Every kernel key this model can launch (template order)."""
    template = config.kernel_template()
    keys = list(PROLOGUE_KERNELS)
    keys.extend(template.layer_kernels)
    keys.extend(EPILOGUE_BASE_KERNELS)
    keys.extend(f"aux_{i:02d}" for i in range(template.epilogue_aux))
    if template.reduce_batches:
        keys.append("batch_reduce")
    return keys


def build_catalog(config: ModelConfig) -> LibraryCatalog:
    """Build the three-library catalog for one model."""
    by_library_module: Dict[Tuple[str, str], List[KernelSpec]] = {}
    for key in all_kernel_keys(config):
        spec = kernel_spec(config, key)
        by_library_module.setdefault((spec.library, spec.module), []).append(spec)

    libraries = []
    for library_name, requires_init in ((LIBTORCH, False), (LIBVLLM, False),
                                        (LIBCUBLAS, True)):
        modules = tuple(
            CudaModule(module_name, library_name, tuple(specs))
            for (lib, module_name), specs in sorted(by_library_module.items())
            if lib == library_name)
        if modules:
            libraries.append(DynamicLibrary(
                name=library_name, modules=modules,
                requires_init=requires_init))
    return LibraryCatalog(tuple(libraries))
