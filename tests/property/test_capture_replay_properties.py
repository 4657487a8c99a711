"""Property: capture/replay equals eager execution for random programs.

Random straight-line kernel programs over the small test catalog are run
eagerly, captured, and replayed; the replayed outputs must match the eager
outputs exactly, and the captured node multiset must equal the launch
sequence (DESIGN.md §6's capture invariant).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simgpu.process import CudaProcess, ExecutionMode

from tests.conftest import make_small_catalog
from tests.simgpu.helpers import params_for, rand_payload

#: (kernel name, number of data inputs) — programs pick inputs among the
#: currently available buffers and write a fresh output each step.
_KERNELS = [
    ("_Z9layernormPfS_S_i", 2),          # input, weight
    ("_Z12residual_addPfS_S_", 2),       # input, input_b
    ("_Z11copy_kernelPfS_", 1),          # input
    ("_ZN7cublas_sim4gemmEv", 2),        # input, weight (hidden + magic)
]

_program = st.lists(
    st.tuples(st.integers(0, len(_KERNELS) - 1),   # which kernel
              st.integers(0, 10**6),               # input pick seed
              st.integers(0, 10**6)),              # second pick seed
    min_size=1, max_size=12,
)


def _run_program(process, program, available):
    """Launch the program; returns the list of output buffers in order."""
    outputs = []
    for kernel_index, pick_a, pick_b in program:
        name, arity = _KERNELS[kernel_index]
        spec = process.catalog.kernel(name)
        source_a = available[pick_a % len(available)]
        source_b = available[pick_b % len(available)]
        out = process.malloc(256, tag="act")
        roles = {"input": source_a.address, "output": out.address}
        if arity == 2:
            role = ("weight" if any(p.role == "weight" for p in spec.params)
                    else "input_b")
            roles[role] = source_b.address
        process.launch(spec, params_for(spec, roles))
        available.append(out)
        outputs.append(out)
    return outputs


class TestCaptureReplayProperty:
    @settings(max_examples=40, deadline=None)
    @given(program=_program, seed=st.integers(0, 10**6))
    def test_replay_matches_eager(self, program, seed):
        process = CudaProcess(seed=seed, catalog=make_small_catalog(),
                              mode=ExecutionMode.COMPUTE)
        base = [process.malloc(256, tag="src", payload=rand_payload(i))
                for i in range(3)]

        # Eager pass (also the warm-up the capture needs).
        eager_outputs = _run_program(process, program, list(base))
        expected = [out.read().copy() for out in eager_outputs]

        # Captured pass over the same base buffers.
        process.default_stream.begin_capture()
        captured_outputs = _run_program(process, program, list(base))
        graph = process.default_stream.end_capture()

        assert graph.num_nodes == len(program)
        graph.instantiate(process).replay()
        for buffer, want in zip(captured_outputs, expected):
            np.testing.assert_array_equal(buffer.read(), want)

    @settings(max_examples=40, deadline=None)
    @given(program=_program, seed=st.integers(0, 10**6))
    def test_captured_kernels_equal_launch_sequence(self, program, seed):
        process = CudaProcess(seed=seed, catalog=make_small_catalog(),
                              mode=ExecutionMode.TIMING)
        base = [process.malloc(256, tag="src") for _ in range(3)]
        _run_program(process, program, list(base))          # warm-up
        process.default_stream.begin_capture()
        _run_program(process, program, list(base))
        graph = process.default_stream.end_capture()
        recorded = [process.driver.cu_func_get_name(address) for address
                    in graph.columns.kernel_addresses.tolist()]
        assert recorded == [_KERNELS[k][0] for k, _a, _b in program]
