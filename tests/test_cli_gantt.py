"""Tests for the CLI front-end and the Gantt schedule renderer."""

import numpy as np
import pytest

from repro.cli import main
from repro.bench.gantt import overlap_fraction, render_gantt
from repro.core.packing import pack_operand
from repro.core.pipeline import run_pipeline
from repro.gpu.arch import GTX_980
from repro.gpu.device import Device
from repro.snp.dataset import SNPDataset
from repro.snp.forensic import generate_database
from repro.snp.generator import PopulationModel, generate_population
from repro.snp.io import save_database_npz, save_dataset_npz, write_snptxt


@pytest.fixture
def dataset_file(tmp_path):
    ds = generate_population(PopulationModel(30, 60, block_size=10), rng=0)
    path = tmp_path / "pop.snptxt"
    write_snptxt(path, ds)
    return str(path)


@pytest.fixture
def database_files(tmp_path):
    db = generate_database(200, 96, rng=1)
    db_path = tmp_path / "db.npz"
    save_database_npz(db_path, db)
    queries = SNPDataset(matrix=db.profiles[:3].copy())
    q_path = tmp_path / "queries.npz"
    save_dataset_npz(q_path, queries)
    return str(q_path), str(db_path)


class TestCli:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX 980" in out and "Vega 64" in out

    def test_tune_prints_config(self, capsys):
        assert main(["tune", "--device", "Vega 64", "--algorithm", "ld"]) == 0
        out = capsys.readouterr().out
        assert "512" in out and "#define SNP_KC" in out

    def test_tune_writes_header(self, tmp_path, capsys):
        header = tmp_path / "config.h"
        assert main(
            ["tune", "--device", "GTX 980", "--header", str(header)]
        ) == 0
        assert "#define SNP_KC            383" in header.read_text()

    def test_ld_summary(self, dataset_file, tmp_path, capsys):
        out_npz = tmp_path / "ld.npz"
        code = main(
            ["ld", "--input", dataset_file, "--device", "GTX 980",
             "--output", str(out_npz)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean r2" in out
        data = np.load(out_npz)
        assert data["counts"].shape == (60, 60)

    def test_identity_finds_planted_members(self, database_files, capsys):
        q_path, db_path = database_files
        assert main(
            ["identity", "--queries", q_path, "--database", db_path,
             "--device", "Titan V"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches (distance <= 0) : 3" in out

    def test_mixture(self, database_files, tmp_path, capsys):
        q_path, db_path = database_files
        assert main(
            ["mixture", "--references", db_path, "--mixture", q_path]
        ) == 0
        out = capsys.readouterr().out
        assert "consistent references" in out

    def test_missing_file_errors(self, capsys):
        assert main(["ld", "--input", "nope.snptxt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_format_errors(self, tmp_path, capsys):
        bad = tmp_path / "data.csv"
        bad.write_text("1,2,3")
        assert main(["ld", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["ld", "--input", "{bad}"],
            ["identity", "--queries", "{bad}", "--database", "{db}"],
            ["mixture", "--references", "{db}", "--mixture", "{bad}"],
        ],
        ids=["ld", "identity", "mixture"],
    )
    def test_unknown_suffix_names_the_format(
        self, database_files, tmp_path, capsys, argv
    ):
        bad = tmp_path / "data.csv"
        bad.write_text("1,2,3")
        _, db_path = database_files
        args = [a.format(bad=bad, db=db_path) for a in argv]
        assert main(args) == 2
        assert "unsupported input format" in capsys.readouterr().err


class TestGantt:
    def _tiled_queue(self):
        rng = np.random.default_rng(0)
        a = pack_operand((rng.random((16, 640)) < 0.4).astype(np.uint8), row_multiple=4)
        b = pack_operand((rng.random((4000, 640)) < 0.4).astype(np.uint8), row_multiple=4)
        from repro.blis.microkernel import ComparisonOp
        from repro.gpu.kernel import SnpKernel
        import dataclasses

        arch = dataclasses.replace(
            GTX_980,
            max_alloc_bytes=64 * 1024,
            global_memory_bytes=GTX_980.global_memory_bytes,
        )
        kernel = SnpKernel.compile(
            arch, ComparisonOp.XOR, m_c=32, m_r=4, k_c=383, n_r=384,
            grid_rows=1, grid_cols=16,
        )
        queue = Device(arch).create_context().create_queue()
        run_pipeline(queue, kernel, a.padded_rows, b.padded_rows, a.k_words)
        return queue

    def test_render_contains_lanes(self):
        queue = self._tiled_queue()
        chart = render_gantt(queue)
        for lane in ("h2d", "compute", "d2h"):
            assert lane in chart
        assert "overlap" in chart

    def test_empty_queue(self):
        queue = Device(GTX_980).create_context().create_queue()
        assert "no commands" in render_gantt(queue)

    def test_overlap_fraction_positive_for_pipeline(self):
        queue = self._tiled_queue()
        assert overlap_fraction(queue) > 0.0

    def test_overlap_fraction_empty(self):
        queue = Device(GTX_980).create_context().create_queue()
        assert overlap_fraction(queue) == 0.0

    def test_bars_within_width(self):
        queue = self._tiled_queue()
        chart = render_gantt(queue, width=40)
        for line in chart.splitlines():
            if "|" in line and line.count("|") == 2:
                bar = line.split("|")[1]
                assert len(bar) == 40
