"""Tests for symmetry-aware Gram mode: triangular shard plans, serial
Gram runs, and the backend "auto" picks for sharded runs."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import bit_gemm_reference, same_operand
from repro.blis.microkernel import ComparisonOp
from repro.core.framework import SNPComparisonFramework
from repro.core.config import Algorithm
from repro.core.ld import linkage_disequilibrium
from repro.errors import ConfigurationError
from repro.observability.counters import GEMM_WORD_OPS, SHARDS_MIRRORED
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel import ParallelEngine, ShardPlan, get_engine

SYMMETRIC_OPS = [
    ComparisonOp.AND,
    ComparisonOp.XOR,
    ComparisonOp.AND_PRENEGATED,
]
#: The two fallback paths, by test id: the dense identity GEMM
#: (``blas``) and the row-blocked reference word walk (``numpy``).
PATHS = [pytest.param("blas", id="gemm"), pytest.param("numpy", id="blocked")]


@pytest.fixture()
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def square_words(m: int, k: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=(m, k), dtype=np.uint64)


# -- triangular shard plans ------------------------------------------------------


class TestTriangularPlan:
    BLOCKING = BlockingPlan(m=96, n=96, k=7, m_c=8, k_c=4, m_r=4, n_r=8)

    def test_covers_output_exactly_once_with_mirrors(self):
        plan = ShardPlan.triangular(self.BLOCKING, workers=3)
        paint = np.zeros((96, 96), dtype=np.int64)
        for shard in plan.shards:
            m0, m1 = shard.m_range
            n0, n1 = shard.n_range
            paint[m0:m1, n0:n1] += 1
            if shard.mirror:
                mm0, mm1 = shard.mirror_m_range
                mn0, mn1 = shard.mirror_n_range
                paint[mm0:mm1, mn0:mn1] += 1
        assert (paint == 1).all()

    def test_mirror_slots_strictly_below_diagonal(self):
        plan = ShardPlan.triangular(self.BLOCKING, workers=3)
        for shard in plan.shards:
            if shard.mirror:
                # Mirror slot rows start at/after the computed slot's
                # column start, i.e. strictly below the band diagonal.
                assert shard.mirror_m_range[0] >= shard.n_range[0]
                assert shard.mirror_m_range[0] > shard.m_range[0]
            else:
                assert shard.m_range == shard.n_range

    def test_word_ops_partition_the_product(self):
        plan = ShardPlan.triangular(self.BLOCKING, workers=3)
        total = 96 * 96 * 7
        assert plan.total_word_ops() + plan.mirrored_word_ops() == total
        assert plan.total_word_ops() < total
        assert plan.n_mirrored > 0

    def test_requires_square_output(self):
        blocking = BlockingPlan(m=32, n=64, k=3, m_c=8, k_c=4, m_r=4, n_r=8)
        with pytest.raises(ConfigurationError):
            ShardPlan.triangular(blocking, workers=2)

    def test_from_blocking_dispatches_on_symmetric(self):
        plan = ShardPlan.from_blocking(self.BLOCKING, 2, symmetric=True)
        assert plan.symmetric
        assert plan.n_mirrored > 0
        full = ShardPlan.from_blocking(self.BLOCKING, 2, symmetric=False)
        assert not full.symmetric
        assert full.n_mirrored == 0


# -- bit-exactness ---------------------------------------------------------------


class TestGramExactness:
    @pytest.mark.parametrize("op", SYMMETRIC_OPS)
    @pytest.mark.parametrize("backend", PATHS)
    def test_parallel_triangular_matches_reference(self, op, backend):
        a = square_words(70, 5, seed=3)
        engine = get_engine(2, backend)
        c, report = engine.run(a, a, op, force_parallel=True)
        assert report.symmetric
        assert report.n_mirrored > 0
        assert (c == bit_gemm_reference(a, a, op)).all()
        assert (c == c.T).all()

    @pytest.mark.parametrize("op", SYMMETRIC_OPS)
    def test_serial_blocked_triangular_matches_reference(self, op):
        # A serial Gram run is one full shard on the named backend.
        a = square_words(48, 3, seed=4)
        plan = BlockingPlan(m=48, n=48, k=3, m_c=8, k_c=2, m_r=4, n_r=8)
        c, report = ParallelEngine(workers=1, backend="numpy").run(
            a, a, op, plan=plan
        )
        assert report.symmetric
        assert report.backend == "numpy"
        assert report.n_shards == 1
        assert (c == bit_gemm_reference(a, a, op)).all()

    @given(
        m=st.integers(8, 40),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        op=st.sampled_from(SYMMETRIC_OPS),
        backend=st.sampled_from(["blas", "numpy"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_triangular_gram_matches_reference(
        self, m, k, seed, op, backend
    ):
        a = square_words(m, k, seed=seed)
        engine = get_engine(2, backend)
        c, report = engine.run(a, a, op, force_parallel=True)
        assert report.symmetric
        assert (c == bit_gemm_reference(a, a, op)).all()


# -- asymmetric ops and operand detection ----------------------------------------


class TestSymmetryValidation:
    def test_andnot_never_triangular(self):
        a = square_words(40, 3, seed=6)
        engine = get_engine(2, "blas")
        c, report = engine.run(a, a, ComparisonOp.ANDNOT, force_parallel=True)
        assert not report.symmetric
        assert report.n_mirrored == 0
        assert (c == bit_gemm_reference(a, a, ComparisonOp.ANDNOT)).all()

    def test_copy_not_auto_detected(self):
        # Detection is pointer-based: an equal-content copy computes the
        # full product.
        a = square_words(24, 2, seed=10)
        engine = get_engine(2, "blas")
        _, report = engine.run(a, a.copy(), ComparisonOp.AND, force_parallel=True)
        assert not report.symmetric

    def test_same_operand_detects_views(self):
        a = square_words(8, 2)
        assert same_operand(a, a)
        assert same_operand(a, a[:])
        assert not same_operand(a, a[1:])
        assert not same_operand(a, a.copy())


# -- the op-count acceptance criterion -------------------------------------------


class TestGramOpSavings:
    def test_engine_gram_word_ops_at_most_055x(self, tracer):
        """LD-style self-comparison: the triangular plan computes <= 0.55x
        the word-ops of the full plan, while the counter records the
        product both runs define."""
        a = square_words(1024, 16, seed=11)
        engine = get_engine(4, "blas")
        full_ops = 1024 * 1024 * 16

        _, full_report = engine.run(
            a, a.copy(), ComparisonOp.AND, force_parallel=True
        )
        assert full_report.total_word_ops == full_ops

        _, gram_report = engine.run(a, a, ComparisonOp.AND, force_parallel=True)
        assert gram_report.symmetric
        computed = gram_report.total_word_ops
        assert computed == gram_report.shard_plan.total_word_ops()
        assert computed <= 0.55 * full_ops
        assert tracer.counters.get(GEMM_WORD_OPS) == 2 * full_ops

    def test_mirrored_shards_counted(self, tracer):
        a = square_words(1024, 16, seed=11)
        engine = get_engine(4, "blas")
        _, report = engine.run(a, a, ComparisonOp.AND, force_parallel=True)
        assert tracer.counters.get(SHARDS_MIRRORED) == report.n_mirrored
        assert report.n_mirrored > 0


# -- device plan re-blocking -----------------------------------------------------


class TestGramReblocking:
    def test_column_spanning_plan_is_reblocked(self):
        # Device kernels favour n_r spanning all columns; the engine
        # must still band the triangular plan finely.
        a = square_words(512, 8, seed=13)
        plan = BlockingPlan(m=512, n=512, k=8, m_c=32, k_c=8, m_r=4, n_r=512)
        engine = get_engine(4, "blas")
        c, report = engine.run(a, a, ComparisonOp.AND, plan=plan, force_parallel=True)
        assert report.symmetric
        assert report.n_mirrored > 0
        assert (c == bit_gemm_reference(a, a, ComparisonOp.AND)).all()

    def test_full_plans_keep_caller_blocking(self):
        a = square_words(128, 4, seed=14)
        b = square_words(128, 4, seed=15)
        plan = BlockingPlan(m=128, n=128, k=4, m_c=32, k_c=4, m_r=4, n_r=128)
        engine = get_engine(2, "blas")
        _, report = engine.run(a, b, ComparisonOp.AND, plan=plan, force_parallel=True)
        assert report.shard_plan.blocking.n_r == 128


# -- framework / pipeline integration --------------------------------------------


class TestFrameworkGram:
    def test_ld_self_comparison_engages_gram(self):
        rng = np.random.default_rng(16)
        mat = rng.integers(0, 2, size=(512, 512), dtype=np.uint8)
        result = linkage_disequilibrium(
            mat, compare="sites", workers=4, backend="blas"
        )
        parallel = result.report.parallel
        assert parallel is not None
        assert parallel.symmetric
        assert parallel.n_mirrored > 0

    def test_explicit_same_matrix_operands_fold_to_self_comparison(self):
        rng = np.random.default_rng(17)
        mat = rng.integers(0, 2, size=(512, 512), dtype=np.uint8)
        fw = SNPComparisonFramework(
            "Titan V", Algorithm.LD, workers=4, backend="blas"
        )
        table, report = fw.run(mat, mat)
        assert report.parallel.symmetric
        assert (table == table.T).all()

    def test_mixture_prenegated_never_gram(self):
        from repro.core.mixture import mixture_analysis

        rng = np.random.default_rng(18)
        refs = rng.integers(0, 2, size=(512, 512), dtype=np.uint8)
        result = mixture_analysis(
            refs, refs, device="Vega 64", workers=4, backend="blas"
        )
        parallel = result.report.parallel
        assert parallel is not None
        assert not parallel.symmetric


# -- sharded "auto": the shape rule alone picks the backend ----------------------


class TestEngineConsultsTuner:
    """The engine reads no tuning record: sharded ``"auto"`` follows the
    shape rule and keeps the triangular plan."""

    def test_auto_without_record_defaults_to_gemm(self, monkeypatch,
                                                  pin_native):
        # Before cnative loads, the BLAS GEMM above 16 rows (64 x 64 x
        # 2 words) and the reference at 16; once loaded, cnative on
        # both sides.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        large = square_words(64, 2, seed=21)
        small = square_words(16, 2, seed=21)
        engine = get_engine(2, "auto")
        for loaded, small_be, large_be in ((False, "numpy", "blas"),
                                           (True, "cnative", "cnative")):
            pin_native(loaded)
            for a, expected in ((large, large_be), (small, small_be)):
                c, report = engine.run(
                    a, a, ComparisonOp.AND, force_parallel=True
                )
                assert report.backend == expected
                assert report.symmetric
                assert (c == bit_gemm_reference(a, a, ComparisonOp.AND)).all()


class TestTuningCache:
    """``host-tuning.json`` files from earlier versions are not read."""

    def test_v1_file_reads_as_empty_cache(self, tmp_path, monkeypatch,
                                          pin_native):
        # A strategy-era (v1) file in the cache root names numpy for
        # this 64 x 64 x 2-word Gram shape: the run follows the shape
        # rule in both cnative states and leaves the root as it was.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        root = tmp_path / "xdg" / "repro"
        root.mkdir(parents=True)
        path = root / "host-tuning.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-host-tuning/1",
                    "records": {
                        "and|m64-n64-k2|w2|b64": {
                            "strategy": "blocked", "triangular": False,
                            "crossover_ops": None, "best_seconds": 0.001,
                            "candidates": 4, "backend": "numpy",
                        }
                    },
                }
            )
        )
        before = path.read_bytes()
        a = square_words(64, 2, seed=21)
        engine = get_engine(2, "auto")
        for loaded, expected in ((False, "blas"), (True, "cnative")):
            pin_native(loaded)
            with monkeypatch.context() as env:
                env.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
                c, report = engine.run(
                    a, a, ComparisonOp.AND, force_parallel=True
                )
            assert report.backend == expected
            assert report.symmetric
            assert (c == bit_gemm_reference(a, a, ComparisonOp.AND)).all()
        assert [p.name for p in root.iterdir()] == ["host-tuning.json"]
        assert path.read_bytes() == before

