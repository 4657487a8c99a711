"""CUDA modules: the load granularity of device kernels.

The CUDA driver loads kernels per *module*: touching any kernel of a module
makes every kernel in that module resolvable (paper §5).  Medusa's
triggering-kernels technique exists precisely because of this granularity —
executing one visible kernel of a module surfaces the hidden ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import InvalidValueError
from repro.simgpu.kernels import KernelSpec


@dataclass(frozen=True)
class CudaModule:
    """An immutable set of kernels that load together."""

    name: str
    library: str
    kernels: Tuple[KernelSpec, ...]

    def __post_init__(self) -> None:
        for spec in self.kernels:
            if spec.module != self.name:
                raise InvalidValueError(
                    f"kernel {spec.name} claims module {spec.module}, "
                    f"placed in {self.name}")
            if spec.library != self.library:
                raise InvalidValueError(
                    f"kernel {spec.name} claims library {spec.library}, "
                    f"module belongs to {self.library}")

    def kernel_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.kernels)

    def find(self, kernel_name: str) -> KernelSpec:
        for spec in self.kernels:
            if spec.name == kernel_name:
                return spec
        raise InvalidValueError(
            f"module {self.name} contains no kernel {kernel_name}")
