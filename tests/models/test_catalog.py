"""Kernel catalog tests: libraries, hidden kernels, module layout."""

import pytest

from repro.models.kernels_catalog import (
    LIBCUBLAS,
    LIBTORCH,
    LIBVLLM,
    all_kernel_keys,
    build_catalog,
    kernel_spec,
    mangled_name,
)
from repro.models.zoo import get_model_config

TINY = get_model_config("Tiny-2L")
QWEN = get_model_config("Qwen1.5-4B")


class TestKernelSpecs:
    def test_mangled_names_are_model_unique(self):
        assert mangled_name(TINY, "qkv_proj") != mangled_name(QWEN, "qkv_proj")
        assert mangled_name(TINY, "qkv_proj").startswith("_ZN")

    def test_gemm_kernels_are_hidden_cublas(self):
        for key in ("qkv_proj", "o_proj", "gate_up_proj", "down_proj",
                    "lm_head"):
            spec = kernel_spec(QWEN, key)
            assert spec.hidden, key
            assert spec.library == LIBCUBLAS, key
            assert spec.host_entry == "cublasGemmEx", key

    def test_only_qkv_needs_magic(self):
        keys = all_kernel_keys(QWEN)
        magic = [k for k in keys if kernel_spec(QWEN, k).needs_magic]
        assert magic == ["qkv_proj"]

    def test_norm_kernels_visible(self):
        spec = kernel_spec(QWEN, "input_layernorm")
        assert not spec.hidden
        assert spec.library == LIBTORCH

    def test_attention_in_vllm_library(self):
        spec = kernel_spec(QWEN, "paged_attention")
        assert spec.library == LIBVLLM
        assert "kv" in [p.role for p in spec.params]

    def test_aux_keys_resolve(self):
        spec = kernel_spec(QWEN, "aux_03")
        assert spec.op == "copy"

    def test_unknown_key_raises(self):
        from repro.errors import InvalidValueError
        with pytest.raises(InvalidValueError):
            kernel_spec(QWEN, "flash_attention_3")


class TestCatalogBuild:
    def test_catalog_has_three_libraries(self):
        catalog = build_catalog(QWEN)
        names = {lib.name for lib in catalog.libraries()}
        assert names == {LIBTORCH, LIBVLLM, LIBCUBLAS}

    def test_only_cublas_requires_init(self):
        catalog = build_catalog(QWEN)
        for library in catalog.libraries():
            assert library.requires_init == (library.name == LIBCUBLAS)

    def test_all_model_kernels_present(self):
        catalog = build_catalog(TINY)
        for key in all_kernel_keys(TINY):
            assert kernel_spec(TINY, key).name in catalog

    def test_hidden_kernels_not_exported(self):
        catalog = build_catalog(QWEN)
        cublas = catalog.library(LIBCUBLAS)
        assert all(spec.hidden for spec in cublas.iter_kernels())

    def test_host_entries_exported(self):
        catalog = build_catalog(QWEN)
        assert "cublasGemmEx" in {
            spec.host_entry
            for spec in catalog.library(LIBCUBLAS).iter_kernels()}

    def test_lm_head_shares_mlp_gemm_module(self):
        """lm_head (hidden, not in layer 1) must live in a module the
        first-layer triggering kernels load (§5.2)."""
        lm_head = kernel_spec(QWEN, "lm_head")
        gate_up = kernel_spec(QWEN, "gate_up_proj")
        assert lm_head.module == gate_up.module

    @pytest.mark.parametrize("name", ["Tiny-2L", "Falcon-7B", "Qwen1.5-0.5B"])
    def test_catalogs_build_for_varied_templates(self, name):
        config = get_model_config(name)
        catalog = build_catalog(config)
        assert len(list(catalog.library(LIBTORCH).iter_kernels())) > 0
