"""Tests for repro.core.framework: the end-to-end driver."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm, KernelConfig
from repro.core.framework import SNPComparisonFramework
from repro.core.identity import identity_search
from repro.core.mixture import mixture_analysis
from repro.core.streaming import StreamingIdentitySearch, StreamingMixture
from repro.errors import ConfigurationError, DatasetError
from repro.gpu.arch import ALL_GPUS, GTX_980, TITAN_V, VEGA_64
from repro.snp.stats import (
    identity_distances_naive,
    ld_counts_naive,
    mixture_scores_naive,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    a = (rng.random((18, 250)) < 0.4).astype(np.uint8)
    b = (rng.random((33, 250)) < 0.5).astype(np.uint8)
    return a, b


class TestConstruction:
    def test_device_by_name(self):
        fw = SNPComparisonFramework("titan v")
        assert fw.arch is TITAN_V

    def test_device_by_arch(self):
        fw = SNPComparisonFramework(VEGA_64, Algorithm.FASTID_IDENTITY)
        assert fw.config.op is ComparisonOp.XOR

    def test_algorithm_by_string(self):
        fw = SNPComparisonFramework("GTX 980", "fastid_mixture")
        assert fw.algorithm is Algorithm.FASTID_MIXTURE

    def test_explicit_config_respected(self):
        cfg = KernelConfig(
            device="GTX 980", algorithm=Algorithm.LD, op=ComparisonOp.AND,
            m_r=4, n_r=96, k_c=100, m_c=32, grid_rows=2, grid_cols=2,
        )
        fw = SNPComparisonFramework("GTX 980", config=cfg)
        assert fw.kernel.n_r == 96

    def test_config_exceeding_cores_rejected(self):
        cfg = KernelConfig(
            device="GTX 980", algorithm=Algorithm.LD, op=ComparisonOp.AND,
            m_r=4, n_r=96, k_c=100, m_c=32, grid_rows=17, grid_cols=1,
        )
        with pytest.raises(ConfigurationError):
            SNPComparisonFramework("GTX 980", config=cfg)

    def test_repr(self):
        assert "Titan V" in repr(SNPComparisonFramework("Titan V"))


class TestRunCorrectness:
    @pytest.mark.parametrize("arch", ALL_GPUS, ids=lambda a: a.name)
    def test_ld_on_every_device(self, data, arch):
        a, _ = data
        fw = SNPComparisonFramework(arch, Algorithm.LD)
        counts, report = fw.run(a)
        assert (counts == ld_counts_naive(a)).all()
        assert report.device == arch.name

    @pytest.mark.parametrize("arch", ALL_GPUS, ids=lambda a: a.name)
    def test_identity_on_every_device(self, data, arch):
        a, b = data
        fw = SNPComparisonFramework(arch, Algorithm.FASTID_IDENTITY)
        dist, _ = fw.run(a, b)
        assert (dist == identity_distances_naive(a, b)).all()

    @pytest.mark.parametrize("arch", ALL_GPUS, ids=lambda a: a.name)
    def test_mixture_on_every_device(self, data, arch):
        a, b = data
        fw = SNPComparisonFramework(arch, Algorithm.FASTID_MIXTURE)
        scores, _ = fw.run(a, b)
        assert (scores == mixture_scores_naive(a, b)).all()

    def test_mixture_prenegation_variants_agree(self, data):
        a, b = data
        fused = SNPComparisonFramework(TITAN_V, Algorithm.FASTID_MIXTURE, prenegate=False)
        pre = SNPComparisonFramework(TITAN_V, Algorithm.FASTID_MIXTURE, prenegate=True)
        assert fused.config.op is ComparisonOp.ANDNOT
        assert pre.config.op is ComparisonOp.AND_PRENEGATED
        s1, _ = fused.run(a, b)
        s2, _ = pre.run(a, b)
        assert (s1 == s2).all()

    def test_ld_self_comparison_with_prenegation_guard(self, data):
        # run(a) with a pre-negated-database mixture framework must
        # negate only the right operand.
        a, _ = data
        fw = SNPComparisonFramework(VEGA_64, Algorithm.FASTID_MIXTURE)
        assert fw.database_needs_prenegation
        scores, _ = fw.run(a)
        assert (scores == mixture_scores_naive(a, a)).all()

    def test_site_count_mismatch_rejected(self, data):
        a, _ = data
        fw = SNPComparisonFramework(GTX_980)
        with pytest.raises(ConfigurationError):
            fw.run(a, np.zeros((4, 99), dtype=np.uint8))
        # 100 and 120 sites both pack to 4 words: only the site counts
        # tell the packed operands apart.
        a100 = fw.pack(np.zeros((3, 100), dtype=np.uint8))
        b120 = fw.pack(np.zeros((5, 120), dtype=np.uint8))
        assert a100.k_words == b120.k_words
        with pytest.raises(ConfigurationError):
            fw.run_packed(a100, b120)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda x: SNPComparisonFramework(GTX_980).run(x, x),
            lambda x: identity_search(x, x),
            lambda x: mixture_analysis(x, x),
            lambda x: StreamingIdentitySearch(x, k=1).add_batch(x),
            lambda x: StreamingMixture(x).add_batch(x),
        ],
        ids=["framework.run", "identity_search", "mixture_analysis",
             "StreamingIdentitySearch.add_batch", "StreamingMixture.add_batch"],
    )
    def test_zero_site_operands_rejected(self, entry):
        with pytest.raises(DatasetError, match="zero sites"):
            entry(np.zeros((3, 0), dtype=np.uint8))


class TestReports:
    def test_report_fields(self, data):
        a, b = data
        fw = SNPComparisonFramework(GTX_980, Algorithm.FASTID_IDENTITY)
        _, report = fw.run(a, b)
        assert report.m == 18 and report.n == 33 and report.k_bits == 250
        assert report.init_s == GTX_980.memory.init_overhead_s
        assert report.h2d_s > 0
        assert report.kernel_s > 0
        assert report.d2h_s > 0
        assert report.end_to_end_s >= report.init_s
        assert report.n_kernel_launches == report.n_tiles == 1
        assert report.word_ops > 0
        assert 0 < report.kernel_efficiency <= 1

    def test_report_summary_text(self, data):
        a, _ = data
        fw = SNPComparisonFramework(GTX_980)
        _, report = fw.run(a)
        text = str(report)
        assert "end-to-end" in text
        assert "GTX 980" in text

    def test_cpu_reference(self):
        fw = SNPComparisonFramework(GTX_980)
        t = fw.cpu_reference_seconds(1000, 1000, 10_000)
        # 1000*1000*157 word-ops at 85 % of 25.2 G/s.
        assert t == pytest.approx(1000 * 1000 * 157 / (0.85 * 25.2e9), rel=1e-6)

    def test_speedup_helper(self, data):
        a, _ = data
        fw = SNPComparisonFramework(GTX_980)
        _, report = fw.run(a)
        assert report.speedup_over(report.end_to_end_s * 2) == pytest.approx(2.0)
