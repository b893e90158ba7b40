"""Tests for repro.gpu.tracing and repro.snp.panels."""

import json

import numpy as np
import pytest

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import pack_operand
from repro.core.pipeline import run_pipeline
from repro.errors import DatasetError
from repro.gpu.arch import GTX_980
from repro.gpu.device import Device
from repro.gpu.tracing import trace_events, write_chrome_trace
from repro.snp.panels import (
    ALL_PANELS,
    FORENSIC_CORE,
    GWAS_ARRAY,
    WGS_COMMON,
    PanelSpec,
    get_panel,
)


def make_traced_queue():
    rng = np.random.default_rng(0)
    a = pack_operand((rng.random((12, 320)) < 0.4).astype(np.uint8), row_multiple=4)
    b = pack_operand((rng.random((600, 320)) < 0.4).astype(np.uint8), row_multiple=4)
    from repro.blis.microkernel import ComparisonOp
    from repro.gpu.kernel import SnpKernel

    kernel = SnpKernel.compile(
        GTX_980, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=384,
        grid_rows=4, grid_cols=4,
    )
    queue = Device(GTX_980).create_context().create_queue()
    run_pipeline(queue, kernel, a.padded_rows, b.padded_rows, a.k_words)
    return queue


class TestTracing:
    def test_events_structure(self):
        queue = make_traced_queue()
        events = trace_events(queue)
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 4  # process + 3 lanes
        assert complete  # at least write A, write B, kernel, read C
        for e in complete:
            assert e["dur"] >= 0
            assert e["ts"] >= 0
            assert e["cat"] in ("h2d", "compute", "d2h")

    def test_event_counts_match_commands(self):
        queue = make_traced_queue()
        complete = [e for e in trace_events(queue) if e["ph"] == "X"]
        intervals = (
            len(queue.transfers.h2d.intervals)
            + len(queue.compute.intervals)
            + len(queue.transfers.d2h.intervals)
        )
        assert len(complete) == intervals

    def test_timestamps_in_microseconds(self):
        queue = make_traced_queue()
        complete = [e for e in trace_events(queue) if e["ph"] == "X"]
        latest_end = max(e["ts"] + e["dur"] for e in complete)
        assert latest_end == pytest.approx(queue.finish() * 1e6, rel=1e-9)

    def test_write_chrome_trace_valid_json(self, tmp_path):
        queue = make_traced_queue()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(queue, path)
        loaded = json.loads(path.read_text())
        assert len(loaded) == count
        assert any(e.get("name") == "process_name" for e in loaded)


class TestPanels:
    def test_registry(self):
        assert get_panel("gwas-array") is GWAS_ARRAY
        assert get_panel("  Forensic-Core ") is FORENSIC_CORE
        with pytest.raises(DatasetError):
            get_panel("codis-20")

    def test_all_panels_materialize_populations(self):
        for panel in ALL_PANELS:
            sites = min(panel.n_sites, 2000)
            small = PanelSpec(
                name=panel.name, description=panel.description,
                n_sites=sites, maf_alpha=panel.maf_alpha,
                maf_beta=panel.maf_beta, block_size=panel.block_size,
                founders_per_block=panel.founders_per_block,
            )
            ds = small.population(30, rng=1)
            assert ds.matrix.shape == (30, sites)

    def test_database_generation(self):
        db = FORENSIC_CORE.database(50, rng=2)
        assert db.n_profiles == 50
        assert db.n_sites == 96

    def test_density_ordering(self):
        # Forensic panels select common variants; WGS panels skew rare.
        assert FORENSIC_CORE.expected_density > GWAS_ARRAY.expected_density
        assert GWAS_ARRAY.expected_density > WGS_COMMON.expected_density

    def test_observed_density_tracks_expectation(self):
        ds = FORENSIC_CORE.population(800, rng=3)
        observed = ds.matrix.mean()
        assert observed == pytest.approx(FORENSIC_CORE.expected_density, abs=0.08)

    def test_panel_with_framework(self):
        # Panels plug straight into the comparison framework.
        ds = FORENSIC_CORE.population(24, rng=4)
        fw = SNPComparisonFramework("GTX 980", Algorithm.LD)
        counts, _ = fw.run(ds.matrix)
        assert counts.shape == (24, 24)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DatasetError):
            PanelSpec(name="bad", description="", n_sites=0,
                      maf_alpha=1, maf_beta=1)
