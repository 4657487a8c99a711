"""Dynamic-link libraries with partial symbol tables.

A :class:`DynamicLibrary` owns modules of kernels.  Its *export table* lists
only the non-hidden kernels: ``dlsym`` resolves those, while hidden kernels
(cuBLAS-style) are invisible — they can only be reached by loading their
module and enumerating it (paper §5).  Libraries also expose *host entries*
(e.g. the ``cublasGemmEx`` C API): always-callable host functions that launch
hidden device kernels internally, which is how real frameworks execute
closed-source kernels and how our warm-up forwarding triggers module loads.

Libraries require one-time initialization on first use in a process; the
initialization performs an implicit device synchronization, which is
*prohibited during stream capture* — this reproduces why warm-up forwarding
must precede capturing (paper §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.errors import InvalidValueError, SymbolNotFoundError
from repro.simgpu.kernels import KernelSpec
from repro.simgpu.modules import CudaModule


@dataclass(frozen=True)
class DynamicLibrary:
    """An immutable shared library: modules + export table + host entries."""

    name: str
    modules: Tuple[CudaModule, ...]
    requires_init: bool = True   # first use synchronizes the device

    def __post_init__(self) -> None:
        # kernel name -> (its module, its spec): an index, not a field.
        index: Dict[str, Tuple[CudaModule, KernelSpec]] = {}
        object.__setattr__(self, "_index", index)
        for module in self.modules:
            if module.library != self.name:
                raise InvalidValueError(
                    f"module {module.name} belongs to {module.library}, "
                    f"not {self.name}")
            for spec in module.kernels:
                if spec.name in index:
                    raise InvalidValueError(
                        f"duplicate kernel {spec.name} in library {self.name}")
                index[spec.name] = (module, spec)

    def iter_kernels(self) -> Iterator[KernelSpec]:
        for module in self.modules:
            yield from module.kernels

    def find_kernel(self, kernel_name: str) -> KernelSpec:
        return self._lookup(kernel_name)[1]

    def module_of(self, kernel_name: str) -> CudaModule:
        return self._lookup(kernel_name)[0]

    def _lookup(self, kernel_name: str) -> Tuple[CudaModule, KernelSpec]:
        entry = self._index.get(kernel_name)
        if entry is None:
            raise SymbolNotFoundError(
                f"library {self.name} has no kernel {kernel_name}")
        return entry


class LibraryCatalog:
    """The set of libraries installed on the simulated machine.

    Shared, immutable configuration — per-process state (load addresses,
    init status, loaded modules) lives in :class:`repro.simgpu.driver.CudaDriver`.
    """

    def __init__(self, libraries: Tuple[DynamicLibrary, ...] = ()):
        self._libraries: Dict[str, DynamicLibrary] = {}
        self._kernel_index: Dict[str, KernelSpec] = {}
        for library in libraries:
            self.add(library)

    def add(self, library: DynamicLibrary) -> None:
        if library.name in self._libraries:
            raise InvalidValueError(f"duplicate library {library.name}")
        for spec in library.iter_kernels():
            if spec.name in self._kernel_index:
                raise InvalidValueError(
                    f"kernel {spec.name} defined in both "
                    f"{self._kernel_index[spec.name].library} and {library.name}")
            self._kernel_index[spec.name] = spec
        self._libraries[library.name] = library

    def library(self, name: str) -> DynamicLibrary:
        library = self._libraries.get(name)
        if library is None:
            raise SymbolNotFoundError(f"no such library: {name}")
        return library

    def kernel(self, kernel_name: str) -> KernelSpec:
        spec = self._kernel_index.get(kernel_name)
        if spec is None:
            raise SymbolNotFoundError(f"no such kernel anywhere: {kernel_name}")
        return spec

    def libraries(self) -> Tuple[DynamicLibrary, ...]:
        return tuple(self._libraries.values())

    def __contains__(self, kernel_name: str) -> bool:
        return kernel_name in self._kernel_index
