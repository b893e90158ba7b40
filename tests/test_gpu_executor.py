"""Tests for repro.gpu.executor (launch pricing) and the host call that
computes the table in ``SNPComparisonFramework.run_packed``."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import PackedOperand
from repro.errors import KernelLaunchError
from repro.gpu.arch import GTX_980, TITAN_V
from repro.gpu.executor import price_kernel
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.snp.stats import identity_distances_naive, ld_counts_naive


@pytest.fixture(scope="module")
def kernel():
    return SnpKernel.compile(
        GTX_980, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=384,
        grid_rows=4, grid_cols=4,
    )


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    bits_a = (rng.random((30, 200)) < 0.4).astype(np.uint8)
    bits_b = (rng.random((25, 200)) < 0.4).astype(np.uint8)
    return bits_a, bits_b


def run(bits_a, bits_b, **kw):
    return SNPComparisonFramework(GTX_980, Algorithm.LD, **kw).run(bits_a, bits_b)


class TestFunctionalPaths:
    def test_blocked_path_correct(self, operands):
        # The row-blocked reference word walk.
        bits_a, bits_b = operands
        c, report = run(bits_a, bits_b, backend="numpy")
        assert (c == ld_counts_naive(bits_a, bits_b)).all()
        assert report.backend == "numpy"

    def test_fast_path_correct(self, operands):
        bits_a, bits_b = operands
        c, report = run(bits_a, bits_b, backend="blas")
        assert (c == ld_counts_naive(bits_a, bits_b)).all()
        assert report.backend == "blas"

    def test_paths_produce_identical_timing(self, operands):
        bits_a, bits_b = operands
        _, r1 = run(bits_a, bits_b, backend="numpy")
        _, r2 = run(bits_a, bits_b, backend="blas")
        assert r1.end_to_end_s == r2.end_to_end_s
        assert r1.kernel_profiles == r2.kernel_profiles

    def test_xor_kernel(self, operands):
        bits_a, bits_b = operands
        fw = SNPComparisonFramework(TITAN_V, Algorithm.FASTID_IDENTITY)
        c, _ = fw.run(bits_a, bits_b)
        assert (c == identity_distances_naive(bits_a, bits_b)).all()


class TestPricing:
    def test_dry_equals_wet(self, operands):
        # A run's launch profile is the priced launch on padded extents.
        bits_a, bits_b = operands
        fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
        _, report = fw.run(bits_a, bits_b)
        a, b = fw.pack(bits_a), fw.pack(bits_b)
        dry = price_kernel(
            fw.kernel, KernelArgs(m=a.padded_rows, n=b.padded_rows, k=a.k_words)
        )
        assert report.kernel_profiles == [dry]

    def test_profile_metadata(self, kernel):
        profile = price_kernel(kernel, KernelArgs(m=30, n=25, k=7))
        assert profile.kernel_name == "snp_and"
        assert profile.device == "GTX 980"
        assert profile.seconds > 0
        assert 0 < profile.efficiency <= 1
        assert profile.throughput_word_ops > 0


def packed(words, n_bits=64):
    return PackedOperand(words=words, n_rows=words.shape[0], n_bits=n_bits)


class TestValidation:
    def test_wrong_dtype_rejected(self):
        a64 = packed(np.zeros((4, 2), dtype=np.uint64))
        fw = SNPComparisonFramework(GTX_980)
        with pytest.raises(KernelLaunchError, match="uint32"):
            fw.run_packed(a64, a64)

    def test_shape_mismatch_rejected(self):
        a = packed(np.zeros((4, 2), dtype=np.uint32))
        b = packed(np.zeros((4, 3), dtype=np.uint32))
        with pytest.raises(KernelLaunchError):
            SNPComparisonFramework(GTX_980).run_packed(a, b)

    def test_inconsistent_args_rejected(self):
        # Two words cannot hold the 100 sites the operand declares.
        a = packed(np.zeros((4, 2), dtype=np.uint32), n_bits=100)
        with pytest.raises(KernelLaunchError, match="inconsistent"):
            SNPComparisonFramework(GTX_980).run_packed(a, a)
