"""Tests for repro.blis.gemm: the reference, walk and serial drivers."""

import numpy as np
import pytest

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import bit_gemm, bit_gemm_blocked, bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.errors import PackingError
from repro.snp.stats import (
    identity_distances_naive,
    ld_counts_naive,
    mixture_scores_naive,
)
from repro.util.bitops import pack_bits

OPS = [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    bits_a = (rng.random((23, 133)) < 0.35).astype(np.uint8)
    bits_b = (rng.random((17, 133)) < 0.55).astype(np.uint8)
    return bits_a, bits_b, pack_bits(bits_a, 32), pack_bits(bits_b, 32)


def oracle(op, bits_a, bits_b):
    if op is ComparisonOp.AND:
        return ld_counts_naive(bits_a, bits_b)
    if op is ComparisonOp.XOR:
        return identity_distances_naive(bits_a, bits_b)
    return mixture_scores_naive(bits_a, bits_b)


class TestAgainstOracle:
    @pytest.mark.parametrize("op", OPS)
    def test_reference(self, operands, op):
        bits_a, bits_b, pa, pb = operands
        assert (bit_gemm_reference(pa, pb, op) == oracle(op, bits_a, bits_b)).all()

    @pytest.mark.parametrize("op", OPS)
    def test_blocked(self, operands, op):
        bits_a, bits_b, pa, pb = operands
        assert (bit_gemm_blocked(pa, pb, op) == oracle(op, bits_a, bits_b)).all()

    @pytest.mark.parametrize("op", OPS)
    def test_fast(self, operands, op):
        bits_a, bits_b, pa, pb = operands
        got = bit_gemm(pa, pb, op, backend="blas")
        assert (got == oracle(op, bits_a, bits_b)).all()

    def test_uint64_operands(self):
        rng = np.random.default_rng(1)
        bits = (rng.random((9, 130)) < 0.5).astype(np.uint8)
        p64 = pack_bits(bits, 64)
        expected = ld_counts_naive(bits)
        assert (bit_gemm_reference(p64, p64) == expected).all()
        assert (bit_gemm(p64, p64, backend="blas") == expected).all()


class TestBlockedPlans:
    def test_custom_plan_agrees(self, operands):
        bits_a, bits_b, pa, pb = operands
        plan = BlockingPlan(
            m=pa.shape[0], n=pb.shape[0], k=pa.shape[1],
            m_c=8, k_c=2, m_r=2, n_r=3, grid_rows=2, grid_cols=2,
        )
        out = bit_gemm_blocked(pa, pb, ComparisonOp.AND, plan)
        assert (out == ld_counts_naive(bits_a, bits_b)).all()

    def test_plan_size_mismatch_rejected(self, operands):
        _, _, pa, pb = operands
        plan = BlockingPlan(m=1, n=1, k=1, m_c=4, k_c=4, m_r=4, n_r=4)
        with pytest.raises(PackingError):
            bit_gemm_blocked(pa, pb, ComparisonOp.AND, plan)

    def test_single_element_blocks(self, operands):
        bits_a, bits_b, pa, pb = operands
        plan = BlockingPlan(
            m=pa.shape[0], n=pb.shape[0], k=pa.shape[1],
            m_c=1, k_c=1, m_r=1, n_r=1,
        )
        out = bit_gemm_blocked(pa, pb, ComparisonOp.XOR, plan)
        assert (out == identity_distances_naive(bits_a, bits_b)).all()


class TestOperandValidation:
    def test_dtype_mismatch_rejected(self):
        a = np.zeros((2, 3), dtype=np.uint32)
        b = np.zeros((2, 3), dtype=np.uint64)
        with pytest.raises(PackingError):
            bit_gemm(a, b)

    def test_k_mismatch_rejected(self):
        a = np.zeros((2, 3), dtype=np.uint32)
        b = np.zeros((2, 4), dtype=np.uint32)
        with pytest.raises(PackingError):
            bit_gemm_reference(a, b)

    def test_non_2d_rejected(self):
        with pytest.raises(PackingError):
            bit_gemm(np.zeros(3, dtype=np.uint32), np.zeros((2, 3), dtype=np.uint32))

    def test_signed_dtype_rejected(self):
        a = np.zeros((2, 3), dtype=np.int32)
        with pytest.raises(PackingError):
            bit_gemm_reference(a, a)


class TestEdgeShapes:
    def test_single_row_and_column(self):
        rng = np.random.default_rng(2)
        bits_a = (rng.random((1, 40)) < 0.5).astype(np.uint8)
        bits_b = (rng.random((1, 40)) < 0.5).astype(np.uint8)
        pa, pb = pack_bits(bits_a, 32), pack_bits(bits_b, 32)
        expected = ld_counts_naive(bits_a, bits_b)
        for fn in (bit_gemm_reference, bit_gemm_blocked, bit_gemm):
            assert (fn(pa, pb) == expected).all()

    def test_asymmetric_fastid_shape(self):
        # Small query block vs larger database, the Fig. 1 asymmetry.
        rng = np.random.default_rng(3)
        q = (rng.random((3, 64)) < 0.5).astype(np.uint8)
        db = (rng.random((200, 64)) < 0.5).astype(np.uint8)
        pq, pdb = pack_bits(q, 32), pack_bits(db, 32)
        expected = identity_distances_naive(q, db)
        assert (bit_gemm_blocked(pq, pdb, ComparisonOp.XOR) == expected).all()

    def test_all_zero_and_all_one_rows(self):
        bits_a = np.vstack([np.zeros(64), np.ones(64)]).astype(np.uint8)
        pa = pack_bits(bits_a, 32)
        out = bit_gemm_reference(pa, pa, ComparisonOp.XOR)
        assert out[0, 1] == 64
        assert out[0, 0] == out[1, 1] == 0
