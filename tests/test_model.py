"""Tests for repro.model: peaks, end-to-end estimation, scaling."""

import numpy as np
import pytest

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.errors import AllocationError, ModelError
from repro.gpu.arch import ALL_GPUS, GTX_980, TITAN_V, VEGA_64
from repro.model.endtoend import estimate_cpu_seconds, estimate_end_to_end
from repro.model.peak import (
    cpu_peak_word32_ops,
    device_peak_summary,
    gpops,
)
from repro.model.scaling import relative_per_core_performance, scaling_curve
from tests.test_core_pipeline import tiny_memory_arch


class TestPeaks:
    def test_summary_contains_all_devices_and_cpu(self):
        rows = device_peak_summary()
        devices = [r["device"] for r in rows]
        assert devices == ["GTX 980", "Titan V", "Vega 64", "2x Intel Xeon E5-2620 v2"]

    def test_paper_peak_ordering(self):
        # Vega has the highest theoretical peak; CPU the lowest.
        peaks = {r["device"]: r["peak_gpops"] for r in device_peak_summary()}
        assert peaks["Vega 64"] > peaks["Titan V"] > peaks["GTX 980"]
        assert peaks["2x Intel Xeon E5-2620 v2"] == pytest.approx(50.4, abs=0.1)

    def test_bottleneck_labels(self):
        rows = {r["device"]: r["bottleneck_pipe"] for r in device_peak_summary()}
        assert rows["GTX 980"] == "popc"
        assert rows["Vega 64"] == "alu"

    def test_gpops_helper(self):
        assert gpops(1.5e9) == pytest.approx(1.5)

    def test_cpu_peak(self):
        assert cpu_peak_word32_ops() == pytest.approx(50.4e9)


class TestEndToEnd:
    def test_dry_matches_framework_run(self):
        """The estimator and a framework run price the same schedule,
        single- and multi-tile, with and without double buffering."""
        rng = np.random.default_rng(0)
        tiny = tiny_memory_arch(max_alloc=8 * 1024)
        for arch in (*ALL_GPUS, tiny):
            for m, n, k_bits in ((24, 40, 256), (16, 700, 320)):
                a = (rng.random((m, k_bits)) < 0.5).astype(np.uint8)
                b = (rng.random((n, k_bits)) < 0.5).astype(np.uint8)
                for double_buffering in (True, False):
                    fw = SNPComparisonFramework(
                        arch, Algorithm.FASTID_IDENTITY,
                        double_buffering=double_buffering,
                    )
                    _, report = fw.run(a, b)
                    est = estimate_end_to_end(
                        arch, Algorithm.FASTID_IDENTITY, m, n, k_bits,
                        double_buffering=double_buffering,
                    )
                    assert est.end_to_end_s == report.end_to_end_s
                    assert est.kernel_s == report.kernel_s
                    assert est.h2d_s == report.h2d_s
                    assert est.d2h_s == report.d2h_s
                    assert est.n_tiles == report.n_tiles
                    assert est.kernel_word_ops == report.word_ops
                    if arch is tiny and n == 700:
                        assert est.n_tiles == 6

    def test_paper_scale_fastid(self):
        # 32 queries vs >20M profiles: priced, not materialized.
        est = estimate_end_to_end(
            TITAN_V, Algorithm.FASTID_IDENTITY, 32, 20 * 1024 * 1024, 1024
        )
        assert 0.1 < est.end_to_end_s < 5.0
        assert est.kernel_word_ops == pytest.approx(32 * 20 * 1024 * 1024 * 32, rel=0.01)

    def test_gtx980_needs_tiling_at_ndis_scale(self):
        # Section VI-E2: the GTX 980 cannot hold the full database.
        est = estimate_end_to_end(
            GTX_980, Algorithm.FASTID_IDENTITY, 32, 20 * 1024 * 1024, 1024
        )
        assert est.n_tiles > 1
        titan = estimate_end_to_end(
            TITAN_V, Algorithm.FASTID_IDENTITY, 32, 20 * 1024 * 1024, 1024
        )
        assert titan.n_tiles == 1

    def test_init_excluded_when_requested(self):
        with_init = estimate_end_to_end(GTX_980, Algorithm.LD, 512, 512, 1024)
        without = estimate_end_to_end(
            GTX_980, Algorithm.LD, 512, 512, 1024, include_init=False
        )
        assert without.init_s == 0.0
        assert with_init.end_to_end_s - without.end_to_end_s == pytest.approx(
            GTX_980.memory.init_overhead_s, rel=0.05
        )

    def test_double_buffering_helps_multi_tile(self):
        kwargs = dict(m=32, n=20 * 1024 * 1024, k_bits=1024)
        on = estimate_end_to_end(GTX_980, Algorithm.FASTID_IDENTITY, **kwargs)
        off = estimate_end_to_end(
            GTX_980, Algorithm.FASTID_IDENTITY, double_buffering=False, **kwargs
        )
        assert on.n_tiles > 1
        assert on.end_to_end_s < off.end_to_end_s
        assert on.overlap_s > 0

    def test_invalid_extents_rejected(self):
        with pytest.raises(ModelError):
            estimate_end_to_end(GTX_980, Algorithm.LD, 0, 10, 10)

    def test_oversized_query_operand_rejected(self):
        with pytest.raises(AllocationError):
            estimate_end_to_end(
                GTX_980, Algorithm.FASTID_IDENTITY, 2_000_000, 10, 20_000
            )

    def test_cpu_estimate(self):
        t = estimate_cpu_seconds(1000, 1000, 6400)
        assert t == pytest.approx(1000 * 1000 * 100 / (0.85 * 25.2e9))

    def test_throughput_property(self):
        est = estimate_end_to_end(TITAN_V, Algorithm.LD, 4096, 4096, 10_000)
        assert est.kernel_throughput_word_ops > 0


class TestScaling:
    def test_baseline_is_one(self):
        for arch in ALL_GPUS:
            assert relative_per_core_performance(arch, 1) == pytest.approx(1.0)

    def test_vega_drops_past_knee(self):
        assert relative_per_core_performance(VEGA_64, 8) == pytest.approx(1.0)
        assert relative_per_core_performance(VEGA_64, 16) < 0.95
        assert relative_per_core_performance(VEGA_64, 64) == pytest.approx(0.553, abs=0.02)

    def test_gtx980_about_90_percent_at_full(self):
        assert relative_per_core_performance(GTX_980, 16) == pytest.approx(0.926, abs=0.02)

    def test_titan_exceeds_100_percent(self):
        # Fig. 7: the Titan V rises above 100 % (DVFS baseline effect)
        # and "scales almost perfectly".
        assert relative_per_core_performance(TITAN_V, 4) > 1.0
        assert relative_per_core_performance(TITAN_V, 80) > 1.0

    def test_curve_default_sampling(self):
        curve = scaling_curve(GTX_980)
        cores = [c for c, _ in curve]
        assert cores == [1, 2, 4, 8, 16]

    def test_curve_custom_counts(self):
        curve = scaling_curve(VEGA_64, [1, 8, 64])
        assert len(curve) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            relative_per_core_performance(GTX_980, 17)
