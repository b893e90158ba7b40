"""Property-based tests: the popcount-GEMM drivers agree everywhere."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import bit_gemm_band, bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.errors import PackingError
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel import bit_gemm_parallel

ops = st.sampled_from(
    [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT, ComparisonOp.AND_PRENEGATED]
)


def blas(a, b, op):
    """One ``blas`` table through the engine's one-shard path."""
    return bit_gemm_parallel(a, b, op, workers=1, backend="blas")


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
        assert (blas(a, b, op) == bit_gemm_reference(a, b, op)).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs(), ops, st.data())
    def test_blocked_equals_reference_any_plan(self, pair, op, data):
        a, b = pair
        plan = data.draw(blocking_plans(a.shape[0], b.shape[0], a.shape[1]))
        # The engine shards along any blocking's m_r / n_r units.
        assert (
            bit_gemm_parallel(
                a, b, op, workers=2, plan=plan, force_parallel=True,
                backend="numpy",
            )
            == bit_gemm_reference(a, b, op)
        ).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]),
        st.integers(0, 40),
        st.integers(0, 9),
        st.sampled_from([ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]),
        st.data(),
    )
    def test_band_equals_reference_diagonals(self, dtype, m, k, op, data):
        width = data.draw(st.integers(0, m + 3), label="width")
        start = data.draw(st.integers(0, m), label="start")
        top = int(np.iinfo(dtype).max)
        a = data.draw(hnp.arrays(dtype, (m, k), elements=st.integers(0, top)))
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            band = bit_gemm_band(a, width, op, start=start)
        finally:
            set_tracer(previous)
        full = bit_gemm_reference(a, a, op)
        expected = np.zeros((m - start, width), dtype=np.int64)
        for q in range(start, m):
            for d in range(1, min(q, width) + 1):
                expected[q - start, d - 1] = full[q, q - d]
        assert band.shape == (m - start, width)
        assert (band == expected).all()
        counters = tracer.counters.snapshot()
        assert counters["gemm.calls"] == 1
        pairs = sum(min(q, width) for q in range(start, m))
        assert counters.get("gemm.popc_word_ops", 0) == pairs * k

    def test_band_rejects_bad_width_and_start(self):
        a = np.zeros((4, 2), dtype=np.uint64)
        with pytest.raises(PackingError, match="width"):
            bit_gemm_band(a, -1)
        for start in (-1, 5):
            with pytest.raises(PackingError, match="start"):
                bit_gemm_band(a, 2, start=start)


class TestAlgebraicProperties:
    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_and_symmetric(self, pair):
        a, b = pair
        c_ab = blas(a, b, ComparisonOp.AND)
        c_ba = blas(b, a, ComparisonOp.AND)
        assert (c_ab == c_ba.T).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_xor_distance_axioms(self, pair):
        a, b = pair
        d = blas(a, b, ComparisonOp.XOR)
        assert (d >= 0).all()
        # Self-distance along matching rows is zero.
        d_self = blas(a, a, ComparisonOp.XOR)
        assert (np.diag(d_self) == 0).all()
        # Symmetry.
        assert (d_self == d_self.T).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_mixture_simplification_identity(self, pair):
        """popc((r^m) & r) == popc(r & ~m), the Section II-C identity."""
        r, m = pair
        fused = blas(r, m, ComparisonOp.ANDNOT)
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
            blas(r, np.bitwise_not(m), ComparisonOp.AND_PRENEGATED)
            == blas(r, m, ComparisonOp.ANDNOT)
        ).all()

    @settings(max_examples=40, deadline=None)
    @given(packed_pairs())
    def test_xor_triangle_inequality(self, pair):
        a, b = pair
        if a.shape[0] < 2:
            return
        x, y = a[0:1], a[1:2]
        d_xy = blas(x, y, ComparisonOp.XOR)[0, 0]
        for j in range(b.shape[0]):
            z = b[j : j + 1]
            d_xz = blas(x, z, ComparisonOp.XOR)[0, 0]
            d_zy = blas(z, y, ComparisonOp.XOR)[0, 0]
            assert d_xy <= d_xz + d_zy
