"""Property-based tests: the popcount-GEMM drivers agree everywhere."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import bit_gemm, bit_gemm_blocked, bit_gemm_reference
from repro.blis.microkernel import ComparisonOp

ops = st.sampled_from(
    [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT, ComparisonOp.AND_PRENEGATED]
)


@st.composite
def packed_pairs(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 8))
    a = draw(
        hnp.arrays(np.uint32, (m, k), elements=st.integers(0, 2**32 - 1))
    )
    b = draw(
        hnp.arrays(np.uint32, (n, k), elements=st.integers(0, 2**32 - 1))
    )
    return a, b


@st.composite
def blocking_plans(draw, m, n, k):
    m_r = draw(st.sampled_from([1, 2, 4]))
    m_c = m_r * draw(st.integers(1, 4))
    k_c = draw(st.integers(1, max(1, k)))
    n_r = draw(st.integers(1, 12))
    grid_rows = draw(st.integers(1, 3))
    grid_cols = draw(st.integers(1, 3))
    return BlockingPlan(
        m=m, n=n, k=k, m_c=m_c, k_c=k_c, m_r=m_r, n_r=n_r,
        grid_rows=grid_rows, grid_cols=grid_cols,
    )


class TestDriverAgreement:
    @settings(max_examples=60, deadline=None)
    @given(packed_pairs(), ops)
    def test_fast_equals_reference(self, pair, op):
        a, b = pair
        assert (bit_gemm(a, b, op, backend="blas") == bit_gemm_reference(a, b, op)).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs(), ops, st.data())
    def test_blocked_equals_reference_any_plan(self, pair, op, data):
        a, b = pair
        plan = data.draw(blocking_plans(a.shape[0], b.shape[0], a.shape[1]))
        assert (
            bit_gemm_blocked(a, b, op, plan) == bit_gemm_reference(a, b, op)
        ).all()


class TestAlgebraicProperties:
    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_and_symmetric(self, pair):
        a, b = pair
        c_ab = bit_gemm(a, b, ComparisonOp.AND, backend="blas")
        c_ba = bit_gemm(b, a, ComparisonOp.AND, backend="blas")
        assert (c_ab == c_ba.T).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_xor_distance_axioms(self, pair):
        a, b = pair
        d = bit_gemm(a, b, ComparisonOp.XOR, backend="blas")
        assert (d >= 0).all()
        # Self-distance along matching rows is zero.
        d_self = bit_gemm(a, a, ComparisonOp.XOR, backend="blas")
        assert (np.diag(d_self) == 0).all()
        # Symmetry.
        assert (d_self == d_self.T).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_mixture_simplification_identity(self, pair):
        """popc((r^m) & r) == popc(r & ~m), the Section II-C identity."""
        r, m = pair
        fused = bit_gemm(r, m, ComparisonOp.ANDNOT, backend="blas")
        # Direct evaluation of the unsimplified form.
        from repro.util.bitops import popcount

        direct = np.zeros_like(fused)
        for i in range(r.shape[0]):
            for j in range(m.shape[0]):
                direct[i, j] = popcount((r[i] ^ m[j]) & r[i]).sum()
        assert (fused == direct).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_prenegation_equivalence(self, pair):
        """AND against ~m equals ANDNOT against m (Section II-C)."""
        r, m = pair
        assert (
            bit_gemm(r, np.bitwise_not(m), ComparisonOp.AND_PRENEGATED, backend="blas")
            == bit_gemm(r, m, ComparisonOp.ANDNOT, backend="blas")
        ).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_xor_triangle_inequality(self, pair):
        a, b = pair
        if a.shape[0] < 2:
            return
        x, y = a[0:1], a[1:2]
        d_xy = bit_gemm(x, y, ComparisonOp.XOR, backend="blas")[0, 0]
        for j in range(b.shape[0]):
            z = b[j : j + 1]
            d_xz = bit_gemm(x, z, ComparisonOp.XOR, backend="blas")[0, 0]
            d_zy = bit_gemm(z, y, ComparisonOp.XOR, backend="blas")[0, 0]
            assert d_xy <= d_xz + d_zy
