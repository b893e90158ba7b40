"""Tests for symmetry-aware Gram mode: triangular shard plans, serial
triangular walks, and the persisted host autotuner."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import (
    bit_gemm_blocked,
    bit_gemm_reference,
    same_operand,
)
from repro.blis.microkernel import ComparisonOp
from repro.core.framework import SNPComparisonFramework
from repro.core.config import Algorithm
from repro.core.ld import linkage_disequilibrium
from repro.errors import ConfigurationError, PackingError
from repro.observability.counters import GEMM_WORD_OPS, SHARDS_MIRRORED
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel import ShardPlan, get_engine
from repro.kernels import available_backends
from repro.parallel.tuner import (
    TUNING_FORMAT,
    TuningCache,
    TuningRecord,
    configure_tuning,
    lookup_tuned,
    tune_problem,
    tuning_key,
)


def _tunable_backends() -> list[str]:
    """Available backends the tuner races."""
    return [be.info.name for be in available_backends() if be.info.tunable]


SYMMETRIC_OPS = [
    ComparisonOp.AND,
    ComparisonOp.XOR,
    ComparisonOp.AND_PRENEGATED,
]
#: The two host paths, by test id: the dense identity GEMM (``blas``)
#: and the blocked five-loop walk (``blis``).
PATHS = [pytest.param("blas", id="gemm"), pytest.param("blis", id="blocked")]


@pytest.fixture()
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


@pytest.fixture()
def tuning_sandbox(tmp_path, monkeypatch):
    """Point the process-wide tuning cache at a fresh temp file (with
    no ``REPRO_BACKEND`` override, so ``"auto"`` meets the tuner)."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    cache = configure_tuning(tmp_path / "tuning.json")
    yield cache
    configure_tuning(tmp_path / "tuning-after.json")


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
        a = square_words(48, 3, seed=4)
        plan = BlockingPlan(m=48, n=48, k=3, m_c=8, k_c=2, m_r=4, n_r=8)
        c = bit_gemm_blocked(a, a, op, plan, symmetric=True)
        assert (c == bit_gemm_reference(a, a, op)).all()

    def test_serial_blocked_triangular_skips_ops(self, tracer):
        a = square_words(64, 2, seed=5)
        plan = BlockingPlan(m=64, n=64, k=2, m_c=8, k_c=2, m_r=4, n_r=8)
        bit_gemm_blocked(a, a, ComparisonOp.AND, plan, symmetric=True)
        gram_ops = tracer.counters.get(GEMM_WORD_OPS)
        assert 0 < gram_ops < 64 * 64 * 2

    @given(
        m=st.integers(8, 40),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        op=st.sampled_from(SYMMETRIC_OPS),
        backend=st.sampled_from(["blas", "blis"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_triangular_gram_matches_reference(
        self, m, k, seed, op, backend
    ):
        a = square_words(m, k, seed=seed)
        engine = get_engine(2, backend)
        c, report = engine.run(a, a, op, force_parallel=True, symmetric=True)
        assert report.symmetric
        assert (c == bit_gemm_reference(a, a, op)).all()


# -- asymmetric ops and validation -----------------------------------------------


class TestSymmetryValidation:
    def test_andnot_never_triangular(self):
        a = square_words(40, 3, seed=6)
        engine = get_engine(2, "blas")
        c, report = engine.run(a, a, ComparisonOp.ANDNOT, force_parallel=True)
        assert not report.symmetric
        assert report.n_mirrored == 0
        assert (c == bit_gemm_reference(a, a, ComparisonOp.ANDNOT)).all()

    def test_explicit_symmetric_with_andnot_rejected(self):
        a = square_words(16, 2)
        engine = get_engine(2, "blas")
        with pytest.raises(PackingError):
            engine.run(a, a, ComparisonOp.ANDNOT, symmetric=True)
        plan = BlockingPlan(m=16, n=16, k=2, m_c=8, k_c=2, m_r=4, n_r=8)
        with pytest.raises(PackingError):
            bit_gemm_blocked(a, a, ComparisonOp.ANDNOT, plan, symmetric=True)

    def test_equal_content_copy_accepted(self):
        a = square_words(24, 2, seed=7)
        b = a.copy()
        assert not same_operand(a, b)
        engine = get_engine(2, "blas")
        c, report = engine.run(
            a, b, ComparisonOp.AND, force_parallel=True, symmetric=True
        )
        assert report.symmetric
        assert (c == bit_gemm_reference(a, a, ComparisonOp.AND)).all()

    def test_different_content_rejected(self):
        a = square_words(24, 2, seed=8)
        b = square_words(24, 2, seed=9)
        engine = get_engine(2, "blas")
        with pytest.raises(PackingError):
            engine.run(a, b, ComparisonOp.AND, symmetric=True)
        plan = BlockingPlan(m=24, n=24, k=2, m_c=8, k_c=2, m_r=4, n_r=8)
        with pytest.raises(PackingError):
            bit_gemm_blocked(a, b, ComparisonOp.AND, plan, symmetric=True)

    def test_copy_not_auto_detected(self):
        # Auto-detection stays pointer-based: a copy computes the full
        # product unless the caller asserts symmetry explicitly.
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
        """LD-style self-comparison: Gram mode computes <= 0.55x the
        word-ops of the full path (exact counter accounting)."""
        a = square_words(1024, 16, seed=11)
        engine = get_engine(4, "blas")

        _, full_report = engine.run(
            a, a, ComparisonOp.AND, force_parallel=True, symmetric=False
        )
        full_ops = tracer.counters.get(GEMM_WORD_OPS)
        assert full_ops == 1024 * 1024 * 16

        _, gram_report = engine.run(a, a, ComparisonOp.AND, force_parallel=True)
        gram_ops = tracer.counters.get(GEMM_WORD_OPS) - full_ops
        assert gram_report.symmetric
        # The counter is exactly the shard plan's computed-op total.
        assert gram_ops == gram_report.shard_plan.total_word_ops()
        assert gram_ops <= 0.55 * full_ops

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

    def test_gram_false_disables(self):
        rng = np.random.default_rng(16)
        mat = rng.integers(0, 2, size=(512, 512), dtype=np.uint8)
        on = linkage_disequilibrium(mat, compare="sites", workers=4, backend="blas")
        off = linkage_disequilibrium(
            mat, compare="sites", workers=4, gram=False, backend="blas"
        )
        off_parallel = off.report.parallel
        assert not off_parallel.symmetric
        assert off_parallel.n_mirrored == 0
        assert (on.counts == off.counts).all()

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


# -- the persisted host autotuner ------------------------------------------------


class TestTuningCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tuning.json"
        cache = TuningCache(path)
        record = TuningRecord(
            backend="blas",
            triangular=True,
            crossover_ops=None,
            best_seconds=0.01,
            candidates=4,
        )
        key = tuning_key(ComparisonOp.AND, 100, 100, 8, 64, 4)
        cache.store(key, record)
        cache.save()

        reloaded = TuningCache(path)
        assert reloaded.lookup(key) == record
        assert reloaded.load_error is None
        assert len(reloaded) == 1

    def test_missing_file_is_empty(self, tmp_path):
        cache = TuningCache(tmp_path / "absent.json")
        assert cache.lookup("anything") is None
        assert cache.load_error is None

    def test_corrupt_json_degrades_gracefully(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{not json")
        cache = TuningCache(path)
        assert cache.lookup("anything") is None
        assert "corrupt" in cache.load_error

    def test_foreign_format_degrades_gracefully(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({"format": "other/9", "records": {}}))
        cache = TuningCache(path)
        assert cache.lookup("anything") is None
        assert "format" in cache.load_error

    def test_bad_record_skipped_good_kept(self, tmp_path):
        path = tmp_path / "tuning.json"
        good = TuningRecord("blis", False, None, 0.5, 2).to_json()
        path.write_text(
            json.dumps(
                {
                    "format": TUNING_FORMAT,
                    "records": {"bad": {"strategy": "warp"}, "good": good},
                }
            )
        )
        cache = TuningCache(path)
        assert cache.lookup("bad") is None
        assert cache.lookup("good") is not None
        assert "skipped" in cache.load_error

    def test_v1_file_reads_as_empty_cache(self, tmp_path, monkeypatch,
                                          pin_native):
        # Strategy-era (v1) files are a foreign format: no migration,
        # just an empty cache with the reason recorded.
        path = tmp_path / "tuning.json"
        key = tuning_key(ComparisonOp.AND, 64, 64, 2, 64, 2)
        path.write_text(
            json.dumps(
                {
                    "format": "repro-host-tuning/1",
                    "records": {
                        key: {
                            "strategy": "blocked", "triangular": False,
                            "crossover_ops": None, "best_seconds": 0.001,
                            "candidates": 4, "backend": "numpy",
                        }
                    },
                }
            )
        )
        assert TUNING_FORMAT == "repro-host-tuning/2"
        cache = TuningCache(path)
        assert cache.lookup(key) is None
        assert len(cache) == 0
        assert "repro-host-tuning/1" in cache.load_error
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        configure_tuning(path)
        try:
            # The size rule, not the record, before and after cnative
            # loads.
            for loaded, small_be, large_be in ((False, "blis", "blas"),
                                               (True, "cnative", "cnative")):
                pin_native(loaded)
                small = square_words(64, 2, seed=23)
                _, report = get_engine(2).run(
                    small, small, ComparisonOp.AND, force_parallel=True
                )
                assert report.backend == small_be
                assert report.symmetric
                large = square_words(256, 32, seed=24)
                _, report = get_engine(2).run(
                    large, large, ComparisonOp.AND, force_parallel=True
                )
                assert report.backend == large_be
        finally:
            configure_tuning(tmp_path / "tuning-after.json")

    def test_v2_file_with_process_records_resolves_thread_record(
        self, tmp_path
    ):
        # v2 files written while a process executor existed carry an
        # "executor" field on every record plus "|exprocess" keys.  The
        # thread record still resolves; the process record is never
        # looked up, even though it is faster.
        path = tmp_path / "tuning.json"
        key = tuning_key(ComparisonOp.AND, 64, 64, 2, 64, 2)
        thread = {
            "backend": "blis", "triangular": False, "crossover_ops": None,
            "best_seconds": 0.5, "candidates": 2, "executor": "thread",
        }
        process = dict(
            thread, backend="blas", best_seconds=0.1, executor="process"
        )
        path.write_text(
            json.dumps(
                {
                    "format": TUNING_FORMAT,
                    "records": {key: thread, key + "|exprocess": process},
                }
            )
        )
        assert TuningCache(path).load_error is None
        configure_tuning(path)
        try:
            assert lookup_tuned(ComparisonOp.AND, 64, 64, 2, 64, 2) == (
                TuningRecord("blis", False, None, 0.5, 2)
            )
        finally:
            configure_tuning(tmp_path / "tuning-after.json")

    def test_shape_bucketing_shares_size_class(self):
        k1 = tuning_key(ComparisonOp.AND, 100, 100, 8, 64, 4)
        k2 = tuning_key(ComparisonOp.AND, 128, 128, 8, 64, 4)
        k3 = tuning_key(ComparisonOp.AND, 129, 129, 8, 64, 4)
        assert k1 == k2
        assert k2 != k3

    def test_tune_problem_records_and_persists(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        record = tune_problem(
            48, 48, 2, op=ComparisonOp.AND, workers=2, cache=cache
        )
        assert record.backend in _tunable_backends()
        # Every tunable backend x {full, triangular}.
        assert record.candidates == 2 * len(_tunable_backends())
        reloaded = TuningCache(tmp_path / "tuning.json")
        key = tuning_key(ComparisonOp.AND, 48, 48, 2, 64, 2)
        assert reloaded.lookup(key) == record

    def test_tune_problem_asymmetric_has_no_triangular_candidates(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        record = tune_problem(
            32, 48, 2, op=ComparisonOp.ANDNOT, workers=2, cache=cache,
            persist=False,
        )
        assert record.candidates == len(_tunable_backends())
        assert not record.triangular

    def test_tune_problem_rejects_bad_extents(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        with pytest.raises(ConfigurationError):
            tune_problem(0, 4, 2, cache=cache, persist=False)
        with pytest.raises(ConfigurationError):
            tune_problem(4, 4, 2, repeats=0, cache=cache, persist=False)


class TestEngineConsultsTuner:
    def test_auto_honours_tuned_strategy(self, tuning_sandbox):
        a = square_words(64, 2, seed=20)
        record = TuningRecord(
            backend="blis",
            triangular=False,
            crossover_ops=None,
            best_seconds=0.001,
            candidates=4,
        )
        tuning_sandbox.store(
            tuning_key(ComparisonOp.AND, 64, 64, 2, 64, 2),
            record,
        )
        engine = get_engine(2, "auto")
        c, report = engine.run(a, a, ComparisonOp.AND, force_parallel=True)
        assert report.backend == "blis"
        # The record measured full plans faster: the Gram hint is dropped.
        assert not report.symmetric
        assert (c == bit_gemm_reference(a, a, ComparisonOp.AND)).all()

    def test_auto_without_record_defaults_to_gemm(self, tuning_sandbox,
                                                  pin_native):
        # Untuned "auto" takes the size rule: before cnative loads, the
        # BLAS GEMM above 2,000,000 word-ops (256 x 256 x 32 words) and
        # the walk below; once loaded, cnative on both sides.
        a = square_words(256, 32, seed=21)
        small = square_words(64, 2, seed=21)
        engine = get_engine(2, "auto")
        for loaded, small_be, large_be in ((False, "blis", "blas"),
                                           (True, "cnative", "cnative")):
            pin_native(loaded)
            _, report = engine.run(a, a, ComparisonOp.AND, force_parallel=True)
            assert report.backend == large_be
            assert report.symmetric
            _, report = engine.run(
                small, small, ComparisonOp.AND, force_parallel=True
            )
            assert report.backend == small_be

    def test_auto_with_triangular_record_keeps_gram(self, tuning_sandbox):
        a = square_words(64, 2, seed=22)
        record = TuningRecord(
            backend="blas",
            triangular=True,
            crossover_ops=None,
            best_seconds=0.001,
            candidates=4,
        )
        tuning_sandbox.store(
            tuning_key(ComparisonOp.AND, 64, 64, 2, 64, 2),
            record,
        )
        engine = get_engine(2, "auto")
        _, report = engine.run(a, a, ComparisonOp.AND, force_parallel=True)
        assert report.backend == "blas"
        assert report.symmetric

    def test_lookup_tuned_reads_sandbox(self, tuning_sandbox):
        record = TuningRecord("blas", True, 12345, 0.5, 4)
        tuning_sandbox.store(tuning_key(ComparisonOp.XOR, 8, 8, 1, 64, 3), record)
        assert lookup_tuned(ComparisonOp.XOR, 8, 8, 1, 64, 3) == record
        assert lookup_tuned(ComparisonOp.XOR, 8, 8, 1, 64, 5) is None
