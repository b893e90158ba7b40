"""Property-based tests for the sparse and multi-GPU extensions."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.parallel import bit_gemm_parallel
from repro.blis.microkernel import ComparisonOp
from repro.multigpu.partition import partition_database
from repro.sparse.auto import auto_comparison
from repro.sparse.kernels import sparse_comparison, sparse_dense_comparison
from repro.sparse.matrix import SparseSNPMatrix
from repro.util.bitops import pack_bits

bit_matrices = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 80)),
    elements=st.integers(0, 1),
)

ops = st.sampled_from([ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT])


class TestSparseProperties:
    @settings(max_examples=60, deadline=None)
    @given(bit_matrices)
    def test_roundtrip(self, bits):
        sp = SparseSNPMatrix.from_dense(bits)
        assert (sp.to_dense() == bits).all()
        assert sp.nnz == bits.sum()

    @settings(max_examples=50, deadline=None)
    @given(bit_matrices, bit_matrices, ops)
    def test_sparse_equals_dense_kernel(self, a_bits, b_bits, op):
        width = min(a_bits.shape[1], b_bits.shape[1])
        a_bits, b_bits = a_bits[:, :width], b_bits[:, :width]
        sa = SparseSNPMatrix.from_dense(a_bits)
        sb = SparseSNPMatrix.from_dense(b_bits)
        dense = bit_gemm_parallel(
            pack_bits(a_bits, 32), pack_bits(b_bits, 32), op, workers=1, backend="blas"
        )
        assert (sparse_comparison(sa, sb, op) == dense).all()

    @settings(max_examples=50, deadline=None)
    @given(bit_matrices, bit_matrices, ops)
    def test_sparse_dense_path_equals_dense(self, a_bits, b_bits, op):
        width = min(a_bits.shape[1], b_bits.shape[1])
        a_bits, b_bits = a_bits[:, :width], b_bits[:, :width]
        sa = SparseSNPMatrix.from_dense(a_bits)
        dense = bit_gemm_parallel(
            pack_bits(a_bits, 32), pack_bits(b_bits, 32), op, workers=1, backend="blas"
        )
        assert (sparse_dense_comparison(sa, b_bits, op) == dense).all()

    @settings(max_examples=40, deadline=None)
    @given(bit_matrices, ops)
    def test_auto_comparison_format_agnostic(self, bits, op):
        table, choice = auto_comparison(bits, op=op)
        dense = bit_gemm_parallel(
            pack_bits(bits, 32), pack_bits(bits, 32), op, workers=1, backend="blas"
        )
        assert (table == dense).all()

    @settings(max_examples=40, deadline=None)
    @given(bit_matrices)
    def test_subset_rows_preserves_content(self, bits):
        sp = SparseSNPMatrix.from_dense(bits)
        reversed_rows = list(range(sp.n_rows))[::-1]
        sub = sp.subset_rows(reversed_rows)
        assert (sub.to_dense() == bits[reversed_rows]).all()


class TestPartitionProperties:
    @settings(max_examples=80)
    @given(
        st.integers(0, 100_000),
        st.integers(1, 32),
        st.integers(1, 1024),
    )
    def test_partition_is_exact_cover(self, n_rows, n_devices, align):
        slices = partition_database(n_rows, n_devices, align)
        assert len(slices) == n_devices
        # Contiguous, ordered, disjoint, covering.
        position = 0
        for s in slices:
            assert s.row_start == position
            assert s.row_stop >= s.row_start
            position = s.row_stop
        assert position == n_rows

    @settings(max_examples=80)
    @given(
        st.integers(1, 100_000),
        st.integers(1, 32),
        st.integers(1, 1024),
    )
    def test_partition_alignment(self, n_rows, n_devices, align):
        slices = partition_database(n_rows, n_devices, align)
        for s in slices[:-1]:
            # Interior boundaries land on alignment multiples (the
            # final stop may be the ragged total).
            assert s.row_stop % align == 0 or s.row_stop == n_rows

    @settings(max_examples=60)
    @given(st.integers(1, 10_000), st.integers(1, 16))
    def test_partition_balanced(self, n_rows, n_devices):
        slices = partition_database(n_rows, n_devices, align=1)
        sizes = [s.n_rows for s in slices]
        assert max(sizes) - min(sizes) <= 1
