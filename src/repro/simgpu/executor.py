"""Kernel execution shared by eager launches and graph replay.

Both paths go through :func:`execute_params`: resolve the raw parameter array
against the kernel's spec and the *live* allocation table, run the numpy op,
write the output payload.  Nothing is looked up by convenient side channels —
a graph node executes purely from its recorded address and parameter values,
so restoration mistakes surface as faults or corrupt data.
"""

from __future__ import annotations

import enum
from typing import Dict, Sequence

import numpy as np

from repro.errors import IllegalMemoryAccessError, InvalidValueError
from repro.simgpu.kernels import KernelParam, KernelSpec, ParamKind, run_op


class ExecutionMode(enum.Enum):
    """COMPUTE executes kernel numpy ops; TIMING only advances the clock."""

    COMPUTE = "compute"
    TIMING = "timing"


def execute_params(process, spec: KernelSpec,
                   params: Sequence[KernelParam]) -> None:
    """Execute one kernel given its spec and a raw parameter array."""
    if len(params) != len(spec.params):
        raise InvalidValueError(
            f"kernel {spec.name}: expected {len(spec.params)} params, "
            f"got {len(params)}")
    buffers: Dict[str, np.ndarray] = {}
    consts: Dict[str, int] = {}
    output_buffer = None
    for slot, param in zip(spec.params, params):
        if param.size != slot.size:
            raise InvalidValueError(
                f"kernel {spec.name} param {slot.role!r}: size {param.size} "
                f"does not match spec size {slot.size}")
        if slot.kind is ParamKind.POINTER:
            buffer = process.allocator.resolve(param.value)
            if slot.role == "output":
                output_buffer = buffer
            else:
                if buffer.payload is None:
                    raise IllegalMemoryAccessError(
                        f"kernel {spec.name} reads uninitialized buffer "
                        f"0x{param.value:x} (role {slot.role!r})")
                buffers[slot.role] = buffer.read()
        else:
            consts[slot.role] = param.value
    if output_buffer is None:
        raise InvalidValueError(f"kernel {spec.name} has no output pointer")
    result = run_op(spec, buffers, consts)
    output_buffer.write(result)

