"""Kernel specifications and their (small but real) compute.

A :class:`KernelSpec` is the device-side identity of a kernel: its mangled
name, the library/module it lives in, whether it is *hidden* from the
library's export table (cuBLAS-like, §5), and its parameter layout.  The
parameter layout is what Medusa inspects inside CUDA graph nodes: a flat
array of values whose only metadata is each entry's byte size — 4-byte
constants vs 8-byte values that *may* be device pointers (§4).

Every kernel has an executable numpy ``op`` over fixed-size payload matrices.
This keeps restoration honest: a graph node restored with a wrong pointer or
wrong kernel address produces an observably wrong output (or an
illegal-access fault), which is exactly what the paper's validation step
catches.

Payload convention: every buffer payload is a ``(PAYLOAD_DIM, PAYLOAD_DIM)``
float64 matrix (except 4-byte "magic" scalars, see below).  "cuBLAS-style"
kernels additionally read two *permanent* 4-byte magic buffers written during
library warm-up; if the magic values are wrong the kernel produces silently
corrupted output, modelling the paper's observation that ~9% of kernels need
two 4-byte permanent buffers holding magic numbers (§4.3).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidValueError

#: Side of the square payload matrices kernels compute on.
PAYLOAD_DIM = 4

#: Byte sizes that identify parameter kinds inside a raw node (paper §4:
#: "the pointers are 8 bytes long and usually begin with a high address
#: prefix").
CONST32_SIZE = 4
WORD64_SIZE = 8


class ParamKind(enum.Enum):
    """Semantic kind of a kernel parameter (known to the kernel author).

    Medusa does *not* see this; it must re-derive pointer-ness from the raw
    (size, value) pairs in the node.  The spec-side kind exists so the
    substrate can execute kernels and so tests can check Medusa's
    classification against ground truth.
    """

    CONST32 = "const32"     # 4-byte scalar constant
    CONST64 = "const64"     # 8-byte scalar constant (a potential false positive)
    POINTER = "pointer"     # 8-byte device pointer


@dataclass(frozen=True)
class ParamSpec:
    """One slot in a kernel's parameter layout."""

    kind: ParamKind
    role: str   # e.g. "input", "weight", "output", "kv", "magic_a", "seed", ...

    @property
    def size(self) -> int:
        return CONST32_SIZE if self.kind is ParamKind.CONST32 else WORD64_SIZE


@dataclass(frozen=True)
class KernelParam:
    """A concrete parameter value as recorded in a launch or a graph node."""

    size: int     # 4 or 8 bytes — the only metadata a raw node exposes
    value: int    # constant value, or raw device address for pointers

    def __post_init__(self) -> None:
        if self.size not in (CONST32_SIZE, WORD64_SIZE):
            raise InvalidValueError(f"unsupported parameter size {self.size}")


@dataclass(frozen=True)
class KernelSpec:
    """Device-side identity and behaviour of one kernel."""

    name: str                    # mangled name, unique across all libraries
    library: str                 # owning dynamic-link library
    module: str                  # owning CUDA module (load granularity, §5)
    op: str                      # compute op key in OPS
    params: Tuple[ParamSpec, ...]
    hidden: bool = False         # absent from the library's export table
    host_entry: Optional[str] = None  # exported host API that launches it
    needs_magic: bool = False    # requires the two permanent magic buffers
    flops_share: float = 1.0     # relative share of a layer's FLOPs (timing)

    @functools.cached_property
    def pointer_slots(self) -> Tuple[Tuple[int, str], ...]:
        """``(slot index, role)`` of every pointer parameter, in order.

        Computed once per spec (specs are immutable), so per-launch code
        need not re-filter ``params`` by kind.
        """
        return tuple((index, p.role) for index, p in enumerate(self.params)
                     if p.kind is ParamKind.POINTER)

    def param_index(self, role: str) -> int:
        for i, p in enumerate(self.params):
            if p.role == role:
                return i
        raise InvalidValueError(f"kernel {self.name} has no param role {role!r}")


@functools.lru_cache(maxsize=None)
def magic_values(kernel_name: str) -> Tuple[int, int]:
    """The two per-kernel magic numbers a cuBLAS-style kernel requires.

    Derived deterministically from the kernel name so the offline and online
    phases agree on ground truth, while remaining distinct per kernel.
    Memoized: a pure function of the name, asked for on every launch.
    """
    h = abs(hash_stable(kernel_name))
    return (h & 0x7FFFFFFF) or 1, ((h >> 31) & 0x7FFFFFFF) or 2


def hash_stable(text: str) -> int:
    """A stable (non-salted) 62-bit string hash."""
    value = 1469598103934665603
    for ch in text.encode():
        value = ((value ^ ch) * 1099511628211) & ((1 << 62) - 1)
    return value


# ---------------------------------------------------------------------------
# Compute ops
#
# Each op receives the resolved payload matrices by role plus the constant
# values by role, and returns the new contents for the "output" role (and
# optionally mutates stateful roles such as "kv").
# ---------------------------------------------------------------------------

OpFunc = Callable[[Mapping[str, np.ndarray], Mapping[str, int]], np.ndarray]

OPS: Dict[str, OpFunc] = {}


def _register(name: str) -> Callable[[OpFunc], OpFunc]:
    def decorator(fn: OpFunc) -> OpFunc:
        OPS[name] = fn
        return fn
    return decorator


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@_register("embed")
def _op_embed(bufs, consts):
    """Token embedding: rows of the weight matrix gathered by input ids."""
    ids = np.abs(bufs["input"]).astype(np.int64) % PAYLOAD_DIM
    return bufs["weight"][ids[:, 0]]


@_register("layernorm")
def _op_layernorm(bufs, consts):
    x = bufs["input"]
    mu = x.mean(axis=-1, keepdims=True)
    sigma = x.std(axis=-1, keepdims=True) + 1e-5
    return (x - mu) / sigma * bufs["weight"]


@_register("gemm")
def _op_gemm(bufs, consts):
    """Plain GEMM (visible kernel)."""
    return bufs["input"] @ bufs["weight"]


@_register("gemm_magic")
def _op_gemm_magic(bufs, consts):
    """cuBLAS-style GEMM gated on two permanent magic buffers.

    The magic buffers hold one scalar each; if either does not match the
    expected constants baked into the node, the output is scaled by the
    mismatch — silent corruption, detectable only by output validation (§4).
    """
    out = bufs["input"] @ bufs["weight"]
    got_a = float(bufs["magic_a"][0, 0])
    got_b = float(bufs["magic_b"][0, 0])
    want_a = float(consts["magic_a_expected"])
    want_b = float(consts["magic_b_expected"])
    if got_a != want_a or got_b != want_b:
        drift = 1.0 + abs(got_a - want_a) + abs(got_b - want_b)
        out = out * drift + 1.0
    return out


@_register("rotary")
def _op_rotary(bufs, consts):
    theta = (consts.get("rot_steps", 1) % 16) * (math.pi / 16.0)
    x = bufs["input"]
    return x * math.cos(theta) + np.roll(x, 1, axis=-1) * math.sin(theta)


@_register("attention")
def _op_attention(bufs, consts):
    """Paged-attention stand-in: mixes input with (and updates) the KV state."""
    x = bufs["input"]
    kv = bufs["kv"]
    kv_new = 0.9 * kv + 0.1 * x
    bufs["kv"][...] = kv_new          # in-place: KV cache is stateful
    scores = _softmax(x @ x.T / math.sqrt(PAYLOAD_DIM))
    return scores @ kv_new


@_register("silu_mul")
def _op_silu_mul(bufs, consts):
    gate = bufs["input"]
    up = bufs["input_b"]
    return gate / (1.0 + np.exp(-np.clip(gate, -30, 30))) * up


@_register("residual_add")
def _op_residual_add(bufs, consts):
    return bufs["input"] + bufs["input_b"]


@_register("copy")
def _op_copy(bufs, consts):
    return np.array(bufs["input"], copy=True)


@_register("sample")
def _op_sample(bufs, consts):
    """Greedy sampling: one-hot of the argmax of each row."""
    x = bufs["input"]
    out = np.zeros_like(x)
    out[np.arange(x.shape[0]), np.argmax(x, axis=-1)] = 1.0
    return out


def run_op(spec: KernelSpec, buffers: Mapping[str, np.ndarray],
           consts: Mapping[str, int]) -> np.ndarray:
    """Execute a kernel's compute given resolved payloads and constants."""
    op = OPS.get(spec.op)
    if op is None:
        raise InvalidValueError(f"kernel {spec.name} has unknown op {spec.op!r}")
    return op(buffers, consts)
