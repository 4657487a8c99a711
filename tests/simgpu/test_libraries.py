"""Library/module/catalog validation tests."""

import pytest

from repro.errors import InvalidValueError, SymbolNotFoundError
from repro.simgpu.kernels import KernelSpec, ParamKind, ParamSpec
from repro.simgpu.libraries import DynamicLibrary, LibraryCatalog
from repro.simgpu.modules import CudaModule


def spec(name, library="lib", module="mod", hidden=False, host=None):
    return KernelSpec(name=name, library=library, module=module, op="copy",
                      params=(ParamSpec(ParamKind.POINTER, "input"),
                              ParamSpec(ParamKind.POINTER, "output")),
                      hidden=hidden, host_entry=host)


class TestModuleValidation:
    def test_module_rejects_foreign_kernel(self):
        with pytest.raises(InvalidValueError):
            CudaModule("mod_a", "lib", (spec("k", module="mod_b"),))

    def test_module_rejects_wrong_library(self):
        with pytest.raises(InvalidValueError):
            CudaModule("mod", "lib_x", (spec("k", library="lib_y"),))

    def test_find_kernel(self):
        module = CudaModule("mod", "lib", (spec("k1"), spec("k2")))
        assert module.find("k2").name == "k2"
        with pytest.raises(InvalidValueError):
            module.find("k3")

    def test_kernel_names(self):
        module = CudaModule("mod", "lib", (spec("k1"), spec("k2")))
        assert module.kernel_names() == ("k1", "k2")


class TestLibraryValidation:
    def test_duplicate_kernel_rejected(self):
        with pytest.raises(InvalidValueError):
            DynamicLibrary("lib", (
                CudaModule("mod", "lib", (spec("k"), spec("k"))),))

    def test_module_of(self):
        library = DynamicLibrary("lib", (
            CudaModule("m1", "lib", (spec("a", module="m1"),)),
            CudaModule("m2", "lib", (spec("b", module="m2"),))))
        assert library.module_of("b").name == "m2"
        with pytest.raises(SymbolNotFoundError):
            library.module_of("c")


class TestCatalog:
    def test_duplicate_library_rejected(self):
        library = DynamicLibrary(
            "lib", (CudaModule("m", "lib", (spec("k", module="m"),)),))
        catalog = LibraryCatalog((library,))
        with pytest.raises(InvalidValueError):
            catalog.add(library)

    def test_cross_library_duplicate_kernel_rejected(self):
        a = DynamicLibrary("a", (CudaModule(
            "m", "a", (spec("k", library="a", module="m"),)),))
        b = DynamicLibrary("b", (CudaModule(
            "m", "b", (spec("k", library="b", module="m"),)),))
        catalog = LibraryCatalog((a,))
        with pytest.raises(InvalidValueError):
            catalog.add(b)

    def test_lookup_and_contains(self):
        library = DynamicLibrary(
            "lib", (CudaModule("m", "lib", (spec("k", module="m"),)),))
        catalog = LibraryCatalog((library,))
        assert catalog.kernel("k").name == "k"
        assert "k" in catalog
        assert "z" not in catalog
        with pytest.raises(SymbolNotFoundError):
            catalog.kernel("z")
        with pytest.raises(SymbolNotFoundError):
            catalog.library("nolib")
