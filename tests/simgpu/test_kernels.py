"""Tests for kernel specs, parameter layouts, and the compute ops."""

import numpy as np
import pytest

from repro.errors import InvalidValueError
from repro.simgpu.kernels import (
    OPS,
    PAYLOAD_DIM,
    KernelParam,
    KernelSpec,
    ParamKind,
    ParamSpec,
    hash_stable,
    magic_values,
    run_op,
)


def _mat(seed):
    return np.random.default_rng(seed).normal(size=(PAYLOAD_DIM, PAYLOAD_DIM))


class TestParamSpecs:
    def test_sizes_follow_kind(self):
        assert ParamSpec(ParamKind.CONST32, "n").size == 4
        assert ParamSpec(ParamKind.CONST64, "seed").size == 8
        assert ParamSpec(ParamKind.POINTER, "input").size == 8

    def test_kernel_param_rejects_odd_sizes(self):
        with pytest.raises(InvalidValueError):
            KernelParam(size=2, value=0)

    def test_param_index_lookup(self):
        spec = KernelSpec(name="k", library="l", module="m", op="copy",
                          params=(ParamSpec(ParamKind.POINTER, "input"),
                                  ParamSpec(ParamKind.POINTER, "output")))
        assert spec.param_index("output") == 1
        with pytest.raises(InvalidValueError):
            spec.param_index("nope")


class TestStableHash:
    def test_deterministic(self):
        assert hash_stable("abc") == hash_stable("abc")

    def test_distinct_inputs(self):
        assert hash_stable("abc") != hash_stable("abd")

    def test_magic_values_positive_and_distinct(self):
        a, b = magic_values("some_kernel")
        assert a > 0 and b > 0
        a2, b2 = magic_values("other_kernel")
        assert (a, b) != (a2, b2)


class TestOps:
    def test_all_ops_registered(self):
        expected = {"embed", "layernorm", "gemm", "gemm_magic", "rotary",
                    "attention", "silu_mul", "residual_add", "copy", "sample"}
        assert expected <= set(OPS)

    def test_gemm(self):
        x, w = _mat(1), _mat(2)
        out = run_op(_spec("gemm"), {"input": x, "weight": w}, {})
        np.testing.assert_allclose(out, x @ w)

    def test_layernorm_rows_are_normalized(self):
        x = _mat(3)
        out = run_op(_spec("layernorm"),
                     {"input": x, "weight": np.ones_like(x)}, {"n": 4})
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)

    def test_copy_is_identity_but_new_array(self):
        x = _mat(4)
        out = run_op(_spec("copy"), {"input": x}, {})
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_residual_add(self):
        a, b = _mat(5), _mat(6)
        out = run_op(_spec("residual_add"), {"input": a, "input_b": b}, {})
        np.testing.assert_allclose(out, a + b)

    def test_sample_is_one_hot(self):
        x = _mat(7)
        out = run_op(_spec("sample"), {"input": x}, {})
        assert np.all(out.sum(axis=-1) == 1.0)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_attention_mutates_kv_in_place(self):
        x, kv = _mat(8), np.zeros((PAYLOAD_DIM, PAYLOAD_DIM))
        run_op(_spec("attention"), {"input": x, "kv": kv}, {})
        assert not np.allclose(kv, 0.0)

    def test_gemm_magic_correct_with_right_magic(self):
        x, w = _mat(9), _mat(10)
        magic = {"magic_a": np.full((1, 1), 7.0),
                 "magic_b": np.full((1, 1), 9.0)}
        out = run_op(_spec("gemm_magic"), {"input": x, "weight": w, **magic},
                     {"magic_a_expected": 7, "magic_b_expected": 9})
        np.testing.assert_allclose(out, x @ w)

    def test_gemm_magic_corrupts_with_wrong_magic(self):
        x, w = _mat(9), _mat(10)
        magic = {"magic_a": np.full((1, 1), 1.0),
                 "magic_b": np.full((1, 1), 9.0)}
        out = run_op(_spec("gemm_magic"), {"input": x, "weight": w, **magic},
                     {"magic_a_expected": 7, "magic_b_expected": 9})
        assert not np.allclose(out, x @ w)

    def test_rotary_deterministic_in_const(self):
        x = _mat(11)
        out1 = run_op(_spec("rotary"), {"input": x}, {"rot_steps": 3})
        out2 = run_op(_spec("rotary"), {"input": x}, {"rot_steps": 3})
        out3 = run_op(_spec("rotary"), {"input": x}, {"rot_steps": 4})
        np.testing.assert_array_equal(out1, out2)
        assert not np.array_equal(out1, out3)

    def test_unknown_op_raises(self):
        with pytest.raises(InvalidValueError):
            run_op(_spec("not_an_op"), {}, {})


def _spec(op: str) -> KernelSpec:
    return KernelSpec(name=f"test_{op}", library="l", module="m", op=op,
                      params=())
