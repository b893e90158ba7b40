"""Tests for repro.cpu: architecture model, functional BLIS, timing."""

import numpy as np
import pytest

from repro.cpu.arch import CPUArchitecture, XEON_E5_2620_V2
from repro.cpu.blis_cpu import cpu_snp_comparison, default_cpu_blocking
from repro.cpu.timing import CPUTimingModel
from repro.blis.microkernel import ComparisonOp
from repro.errors import ConfigurationError, ModelError, PackingError
from repro.snp.stats import identity_distances_naive, ld_counts_naive
from repro.util.bitops import pack_bits


class TestCpuArch:
    def test_xeon_matches_table1(self):
        cpu = XEON_E5_2620_V2
        assert cpu.frequency_ghz == 2.1
        assert cpu.n_cores == 12       # 2 sockets x 6 cores
        assert cpu.word_bits == 64
        assert cpu.popcount_units == 1
        assert cpu.popcount_latency == 3
        assert cpu.add_units == 4

    def test_peak_is_popcount_bound(self):
        cpu = XEON_E5_2620_V2
        # 12 cores x 2.1 GHz x 1 popcount/cycle.
        assert cpu.peak_word_ops_per_second() == pytest.approx(12 * 2.1e9)

    def test_peak_32bit_normalization(self):
        cpu = XEON_E5_2620_V2
        assert cpu.peak_word32_ops_per_second() == pytest.approx(2 * 12 * 2.1e9)
        assert cpu.peak_word32_ops_per_second() / 1e9 == pytest.approx(50.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CPUArchitecture("x", "y", frequency_ghz=0, n_cores=4)
        with pytest.raises(ConfigurationError):
            CPUArchitecture("x", "y", frequency_ghz=1, n_cores=4, word_bits=48)


class TestCpuBlis:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        bits_a = (rng.random((11, 200)) < 0.4).astype(np.uint8)
        bits_b = (rng.random((9, 200)) < 0.4).astype(np.uint8)
        return bits_a, bits_b, pack_bits(bits_a, 64), pack_bits(bits_b, 64)

    def test_blocked_path_matches_oracle(self, data):
        bits_a, bits_b, pa, pb = data
        out = cpu_snp_comparison(pa, pb, ComparisonOp.AND, backend="blis")
        assert (out == ld_counts_naive(bits_a, bits_b)).all()

    def test_fast_path_matches_oracle(self, data):
        bits_a, bits_b, pa, pb = data
        out = cpu_snp_comparison(pa, pb, ComparisonOp.XOR, backend="blas")
        assert (out == identity_distances_naive(bits_a, bits_b)).all()

    def test_paths_agree(self, data):
        _, _, pa, pb = data
        blocked = cpu_snp_comparison(pa, pb, ComparisonOp.ANDNOT, backend="blis")
        fast = cpu_snp_comparison(pa, pb, ComparisonOp.ANDNOT, backend="blas")
        assert (blocked == fast).all()

    def test_wrong_word_width_rejected(self, data):
        bits_a, _, _, _ = data
        pa32 = pack_bits(bits_a, 32)
        with pytest.raises(PackingError):
            cpu_snp_comparison(pa32, pa32)

    def test_default_blocking_derivation(self):
        plan = default_cpu_blocking(100, 100, 50)
        assert plan.m_r == 4 and plan.n_r == 8
        # k_c sized so (m_r + n_r) * k_c * 8 bytes fits half the 32 KiB L1.
        assert (plan.m_r + plan.n_r) * plan.k_c * 8 <= 16 * 1024
        # m_c aligned to m_r and L2-bounded.
        assert plan.m_c % plan.m_r == 0
        assert plan.m_c * plan.k_c * 8 <= 128 * 1024


class TestCpuTiming:
    def test_word_ops_counts_padded_words(self):
        model = CPUTimingModel()
        # 100 bits -> 2 64-bit words.
        assert model.word_ops(3, 5, 100) == 3 * 5 * 2

    def test_time_scales_linearly(self):
        model = CPUTimingModel()
        t1 = model.execution_time(100, 100, 6400)
        t2 = model.execution_time(200, 100, 6400)
        assert t2 == pytest.approx(2 * t1)

    def test_band_ordering(self):
        model = CPUTimingModel()
        fast, slow = model.execution_time_band(1000, 1000, 10000)
        nominal = model.execution_time(1000, 1000, 10000)
        assert fast < nominal < slow

    def test_efficiency_band_of_paper(self):
        # [11] reports 80-90 % of peak; the model throughput normalized
        # to 32-bit words must land inside that band of the 50.4 GPOPS
        # peak.
        model = CPUTimingModel()
        tp = model.throughput_word32_ops(4096, 4096, 65536)
        peak32 = XEON_E5_2620_V2.peak_word32_ops_per_second()
        assert 0.80 * peak32 <= tp <= 0.90 * peak32

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ModelError):
            CPUTimingModel(efficiency=0.0)
        with pytest.raises(ModelError):
            CPUTimingModel(efficiency=0.95, efficiency_low=0.8, efficiency_high=0.9)

    def test_negative_extent_rejected(self):
        with pytest.raises(ModelError):
            CPUTimingModel().word_ops(-1, 2, 3)
