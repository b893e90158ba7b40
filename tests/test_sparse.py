"""Tests for repro.sparse: the future-work sparse representation."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.errors import DatasetError, ModelError
from repro.snp.stats import (
    identity_distances_naive,
    ld_counts_naive,
    mixture_scores_naive,
)
from repro.sparse.auto import auto_comparison, choose_representation
from repro.sparse.cost import SparseCostModel, density_crossover
from repro.sparse.kernels import (
    intersection_counts,
    sparse_comparison,
    sparse_dense_comparison,
)
from repro.sparse.matrix import SparseSNPMatrix


def random_bits(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.uint8)


class TestSparseMatrix:
    def test_from_dense_roundtrip(self):
        bits = random_bits((11, 73), 0.2, 1)
        sp = SparseSNPMatrix.from_dense(bits)
        assert (sp.to_dense() == bits).all()
        assert sp.nnz == bits.sum()
        assert sp.n_rows == 11
        assert sp.n_sites == 73

    def test_rows_sorted(self):
        bits = random_bits((5, 40), 0.5, 2)
        sp = SparseSNPMatrix.from_dense(bits)
        for r in range(5):
            row = sp.row(r)
            assert (np.diff(row) > 0).all() or row.size <= 1

    def test_density(self):
        bits = np.zeros((4, 10), dtype=np.uint8)
        bits[0, :5] = 1
        sp = SparseSNPMatrix.from_dense(bits)
        assert sp.density == pytest.approx(5 / 40)

    def test_empty_matrix(self):
        sp = SparseSNPMatrix.from_dense(np.zeros((3, 8), dtype=np.uint8))
        assert sp.nnz == 0
        assert (sp.to_dense() == 0).all()

    def test_subset_rows(self):
        bits = random_bits((6, 20), 0.3, 3)
        sp = SparseSNPMatrix.from_dense(bits)
        sub = sp.subset_rows([4, 0])
        assert (sub.to_dense() == bits[[4, 0]]).all()

    def test_row_out_of_range(self):
        sp = SparseSNPMatrix.from_dense(np.zeros((2, 4), dtype=np.uint8))
        with pytest.raises(DatasetError):
            sp.row(2)

    def test_invalid_construction(self):
        with pytest.raises(DatasetError):
            SparseSNPMatrix(
                indices=np.array([5]), indptr=np.array([0, 1]), n_sites=3
            )
        with pytest.raises(DatasetError):
            SparseSNPMatrix(
                indices=np.array([1]), indptr=np.array([0, 2]), n_sites=4
            )
        with pytest.raises(DatasetError):
            SparseSNPMatrix(
                indices=np.array([2, 1]), indptr=np.array([0, 2]), n_sites=4
            )

    def test_non_binary_rejected(self):
        with pytest.raises(DatasetError):
            SparseSNPMatrix.from_dense(np.array([[0, 2]]))


class TestSparseKernels:
    @pytest.fixture(scope="class")
    def operands(self):
        a = random_bits((9, 120), 0.15, 4)
        b = random_bits((13, 120), 0.25, 5)
        return a, b, SparseSNPMatrix.from_dense(a), SparseSNPMatrix.from_dense(b)

    def test_intersection_counts(self, operands):
        a, b, sa, sb = operands
        expected = ld_counts_naive(a, b)
        assert (intersection_counts(sa, sb) == expected).all()

    def test_and_kernel(self, operands):
        a, b, sa, sb = operands
        assert (sparse_comparison(sa, sb, ComparisonOp.AND) == ld_counts_naive(a, b)).all()

    def test_xor_kernel(self, operands):
        a, b, sa, sb = operands
        assert (
            sparse_comparison(sa, sb, ComparisonOp.XOR)
            == identity_distances_naive(a, b)
        ).all()

    def test_andnot_kernel(self, operands):
        a, b, sa, sb = operands
        assert (
            sparse_comparison(sa, sb, ComparisonOp.ANDNOT)
            == mixture_scores_naive(a, b)
        ).all()

    def test_self_comparison(self, operands):
        a, _, sa, _ = operands
        assert (sparse_comparison(sa) == ld_counts_naive(a)).all()

    def test_empty_rows(self):
        a = np.zeros((3, 16), dtype=np.uint8)
        a[1, [2, 5]] = 1
        sa = SparseSNPMatrix.from_dense(a)
        assert (sparse_comparison(sa) == ld_counts_naive(a)).all()

    def test_site_mismatch_rejected(self, operands):
        _, _, sa, _ = operands
        other = SparseSNPMatrix.from_dense(np.zeros((2, 7), dtype=np.uint8))
        with pytest.raises(DatasetError):
            sparse_comparison(sa, other)

    def test_sparse_dense_path(self, operands):
        a, b, sa, _ = operands
        out = sparse_dense_comparison(sa, b, ComparisonOp.XOR)
        assert (out == identity_distances_naive(a, b)).all()
        out_and = sparse_dense_comparison(sa, b, ComparisonOp.AND)
        assert (out_and == ld_counts_naive(a, b)).all()

    def test_sparse_dense_validation(self, operands):
        _, _, sa, _ = operands
        with pytest.raises(DatasetError):
            sparse_dense_comparison(sa, np.zeros((2, 99), dtype=np.uint8))


class TestCostModel:
    def test_dense_cost_density_independent(self):
        m = SparseCostModel()
        assert m.dense_ops(10, 10, 320) == 10 * 10 * 10

    def test_sparse_cost_quadratic_in_density(self):
        m = SparseCostModel(pair_overhead=0.0)
        low = m.sparse_ops(10, 10, 1000, 0.01)
        high = m.sparse_ops(10, 10, 1000, 0.02)
        assert high == pytest.approx(4 * low)

    def test_crossover_in_rare_variant_regime(self):
        # With default constants the crossover sits at a few percent
        # density -- the rare-variant panels the paper's remark targets.
        d_star = density_crossover()
        assert 0.01 < d_star < 0.15
        m = SparseCostModel()
        assert m.sparse_wins(100, 100, 10_000, d_star * 0.5)
        assert not m.sparse_wins(100, 100, 10_000, d_star * 2.0)

    def test_crossover_shrinks_with_sparse_cost(self):
        cheap = density_crossover(SparseCostModel(sparse_op_cost=4.0))
        costly = density_crossover(SparseCostModel(sparse_op_cost=16.0))
        assert costly < cheap

    def test_overhead_can_kill_sparse(self):
        # Tiny k: the per-pair overhead exceeds the dense cost outright.
        model = SparseCostModel(pair_overhead=100.0)
        assert density_crossover(model, k_bits=32) == 0.0

    def test_validation(self):
        with pytest.raises(ModelError):
            SparseCostModel(sparse_op_cost=0.0)
        with pytest.raises(ModelError):
            SparseCostModel().sparse_ops(1, 1, 10, 1.5)
        with pytest.raises(ModelError):
            SparseCostModel().dense_ops(0, 1, 10)


class TestAutoSelection:
    def test_rare_variants_choose_sparse(self):
        a = random_bits((20, 2000), 0.01, 6)
        choice = choose_representation(a)
        assert choice.representation == "sparse"
        assert choice.predicted_speedup > 1.0

    def test_common_variants_choose_dense(self):
        a = random_bits((20, 2000), 0.4, 7)
        choice = choose_representation(a)
        assert choice.representation == "dense"

    @pytest.mark.parametrize("density", [0.01, 0.4])
    @pytest.mark.parametrize(
        "op", [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]
    )
    def test_auto_comparison_bit_exact(self, density, op):
        a = random_bits((8, 300), density, 8)
        b = random_bits((6, 300), density, 9)
        table, choice = auto_comparison(a, b, op)
        oracle = {
            ComparisonOp.AND: ld_counts_naive,
            ComparisonOp.XOR: identity_distances_naive,
            ComparisonOp.ANDNOT: mixture_scores_naive,
        }[op](a, b)
        assert (table == oracle).all()
        assert choice.representation in ("sparse", "dense")

    def test_auto_self_comparison(self):
        a = random_bits((10, 400), 0.02, 10)
        table, choice = auto_comparison(a)
        assert (table == ld_counts_naive(a)).all()
        assert choice.representation == "sparse"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            choose_representation(
                np.zeros((2, 5), dtype=np.uint8), np.zeros((2, 6), dtype=np.uint8)
            )

    @pytest.mark.parametrize("density", [0.01, 0.4])
    @pytest.mark.parametrize("side", ["a", "b", "self"])
    def test_non_binary_input_raises_one_dataset_error(self, density, side):
        # Whichever representation would win, a 2 fails the one binary
        # check before the cost model reads the density.
        a = random_bits((8, 300), density, 11)
        b = random_bits((6, 300), density, 12)
        bad = (b if side == "b" else a).copy()
        bad[3, 5] = 2
        args = {"a": (bad, b), "b": (a, bad), "self": (bad, None)}[side]
        with pytest.raises(DatasetError, match="non-binary"):
            auto_comparison(*args)
