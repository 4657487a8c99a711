"""Per-process CUDA driver state: ASLR, module loading, symbol resolution.

This is where the paper's Challenge II lives.  Kernel addresses are
``library base + stable offset``; the base is randomized per process launch
(ASLR), so addresses recorded in an offline CUDA graph are meaningless
online.  Visible kernels can be re-resolved through the
``dlopen → dlsym → cudaGetFuncBySymbol`` path; hidden kernels only become
addressable after their *module* loads, at which point
``cuModuleEnumerateFunctions``/``cuFuncGetName`` expose them (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.errors import (
    InvalidValueError,
    ModuleNotLoadedError,
    SymbolNotFoundError,
)
from repro.faultscope import active_injector
from repro.simgpu.kernels import KernelSpec, hash_stable
from repro.simgpu.libraries import DynamicLibrary, LibraryCatalog
from repro.simgpu.modules import CudaModule

#: Region where library text segments land (distinct from the device heap
#: region, so pointer classification heuristics can tell them apart).
_LIBRARY_REGION_BASE = 0x5500_0000_0000
_LIBRARY_REGION_SPAN = 0x0080_0000_0000


@dataclass(frozen=True)
class HostSymbol:
    """The result of a successful ``dlsym``: a host-side function handle."""

    library: str
    kernel_name: str
    handle: int


class CudaDriver:
    """Process-local driver state over a shared :class:`LibraryCatalog`."""

    def __init__(self, catalog: LibraryCatalog, aslr_seeds):
        self.catalog = catalog
        self._aslr_seeds = aslr_seeds     # SeedSequence: per-library bases
        #: The repro.faults.FaultInjector in scope (repro.faultscope), if
        #: any: lets chaos tests make symbol resolution fail the way a
        #: driver/library skew would.
        self.injector = active_injector()
        self._lib_bases: Dict[str, int] = {}
        self._initialized_libs: Set[str] = set()
        self._loaded_modules: Set[Tuple[str, str]] = set()   # (library, module)
        self._addr_to_kernel: Dict[int, KernelSpec] = {}
        self._kernel_to_addr: Dict[str, int] = {}
        #: kernel name -> (library, address) once a launch found its library
        #: initialized and its module loaded.  Exact because that state only
        #: grows: nothing uninitializes a library or unloads a module.
        self.launch_ready: Dict[str, Tuple[str, int]] = {}

    # -- ASLR ----------------------------------------------------------------

    def dlopen(self, library_name: str) -> DynamicLibrary:
        """Map a library into this process (assigns its randomized base)."""
        library = self.catalog.library(library_name)
        if library_name not in self._lib_bases:
            # Per-(process, library) base: independent of dlopen order, so a
            # checkpoint restored into a same-seed process sees identical
            # kernel addresses regardless of its library-loading order.
            rng = self._aslr_seeds.generator("lib", library_name)
            offset = int(rng.integers(0, _LIBRARY_REGION_SPAN // 0x1000))
            self._lib_bases[library_name] = _LIBRARY_REGION_BASE + offset * 0x1000
            # Addresses become *defined* at dlopen, but kernels are not
            # launchable/enumerable until their module loads.
            for spec in library.iter_kernels():
                address = self._compute_address(library_name, spec)
                self._kernel_to_addr[spec.name] = address
        return library

    def _compute_address(self, library_name: str, spec: KernelSpec) -> int:
        base = self._lib_bases[library_name]
        offset = (hash_stable(f"{spec.module}/{spec.name}") & 0xFFFFFF) * 0x40
        address = base + offset
        while address in self._addr_to_kernel and \
                self._addr_to_kernel[address].name != spec.name:
            address += 0x40   # deterministic collision bump
        self._addr_to_kernel.setdefault(address, spec)
        return address

    # -- library initialization (the warm-up requirement) ---------------------

    def library_initialized(self, library_name: str) -> bool:
        return library_name in self._initialized_libs

    def mark_library_initialized(self, library_name: str) -> None:
        self._initialized_libs.add(library_name)

    # -- module loading --------------------------------------------------------

    def module_loaded(self, library_name: str, module_name: str) -> bool:
        return (library_name, module_name) in self._loaded_modules

    def load_module_for(self, spec: KernelSpec) -> CudaModule:
        """Load the module containing ``spec`` (idempotent); returns it."""
        library = self.dlopen(spec.library)
        module = library.module_of(spec.name)
        self._loaded_modules.add((spec.library, module.name))
        return module

    def loaded_modules(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(self._loaded_modules))

    # -- symbol resolution (the dlsym path, §5) ---------------------------------

    def dlsym(self, library_name: str, mangled_name: str) -> HostSymbol:
        """Resolve a *visible* kernel symbol; hidden kernels raise."""
        library = self.dlopen(library_name)
        if self.injector is not None \
                and self.injector.symbol_blocked(mangled_name):
            raise SymbolNotFoundError(
                f"dlsym: {mangled_name} is not in the symbol table of "
                f"{library_name} (fault injection)")
        spec = library.find_kernel(mangled_name)
        if spec.hidden:
            raise SymbolNotFoundError(
                f"dlsym: {mangled_name} is not in the symbol table of "
                f"{library_name} (hidden kernel)")
        handle = hash_stable(f"host:{library_name}:{mangled_name}")
        return HostSymbol(library=library_name, kernel_name=mangled_name,
                          handle=handle)

    def cuda_get_func_by_symbol(self, symbol: HostSymbol) -> int:
        """``cudaGetFuncBySymbol``: host symbol → device address.

        Loads the containing module as a side effect, as the real driver does.
        """
        spec = self.catalog.kernel(symbol.kernel_name)
        self.load_module_for(spec)
        return self._kernel_to_addr[spec.name]

    # -- module enumeration (the triggering-kernels path, §5) --------------------

    def cu_module_enumerate_functions(self, library_name: str,
                                      module_name: str) -> Tuple[int, ...]:
        """All kernel addresses in a *loaded* module, hidden ones included."""
        if not self.module_loaded(library_name, module_name):
            raise ModuleNotLoadedError(
                f"module {library_name}/{module_name} is not loaded; "
                f"execute one of its kernels first")
        library = self.catalog.library(library_name)
        for module in library.modules:
            if module.name == module_name:
                return tuple(self._kernel_to_addr[s.name]
                             for s in module.kernels
                             if self.injector is None
                             or not self.injector.symbol_blocked(s.name))
        raise InvalidValueError(f"{library_name} has no module {module_name}")

    def cu_func_get_name(self, address: int) -> str:
        """``cuFuncGetName``: device address → mangled name."""
        spec = self._addr_to_kernel.get(address)
        if spec is None:
            raise InvalidValueError(f"0x{address:x} is not a kernel address")
        return spec.name

    # -- address↔spec lookups used by launch/replay ------------------------------

    def kernel_address(self, kernel_name: str) -> int:
        """The address of a kernel whose library has been mapped."""
        address = self._kernel_to_addr.get(kernel_name)
        if address is None:
            raise SymbolNotFoundError(
                f"kernel {kernel_name}: library not dlopen()ed in this process")
        return address

    def resolve_executable(self, address: int) -> KernelSpec:
        """Map a raw device address to an *executable* kernel.

        Launching through an address whose module was never loaded is an
        invalid device function — the failure mode of blindly restoring a
        materialized graph without triggering module loads.
        """
        spec = self._addr_to_kernel.get(address)
        if spec is None:
            raise InvalidValueError(
                f"launch through invalid kernel address 0x{address:x}")
        module = self.catalog.library(spec.library).module_of(spec.name)
        if not self.module_loaded(spec.library, module.name):
            raise ModuleNotLoadedError(
                f"kernel {spec.name} at 0x{address:x}: module "
                f"{spec.library}/{module.name} not loaded (invalid device function)")
        return spec
