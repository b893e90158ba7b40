"""Tests for repro.parallel: shard plan and parallel engine."""

import numpy as np
import pytest

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.cli import main
from repro.core.framework import SNPComparisonFramework
from repro.core.config import Algorithm
from repro.core.identity import identity_search
from repro.core.ld import linkage_disequilibrium
from repro.core.mixture import mixture_analysis
from repro.core.streaming import (
    StreamingIdentitySearch,
    StreamingLD,
    StreamingMixture,
)
from repro.errors import ConfigurationError, PackingError
from repro.gpu.arch import GTX_980
from repro.multigpu.executor import run_multi_gpu
from repro.multigpu.system import QUAD_GTX980
from repro.parallel import (
    ParallelEngine,
    Shard,
    ShardPlan,
    bit_gemm_parallel,
    get_engine,
)
from repro.snp.generator import PopulationModel, generate_population
from repro.snp.io import write_snptxt
from repro.util.bitops import pack_bits
from repro.util.validation import check_workers

OPS = [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]
WORKERS = [1, 2, 4]
#: The two fallback paths, by test id: the dense identity GEMM
#: (``blas``) and the row-blocked reference word walk (``numpy``).
PATHS = [pytest.param("blas", id="gemm"), pytest.param("numpy", id="blocked")]


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(7)
    bits_a = (rng.random((53, 517)) < 0.35).astype(np.uint8)
    bits_b = (rng.random((41, 517)) < 0.55).astype(np.uint8)
    return bits_a, bits_b, pack_bits(bits_a, 32), pack_bits(bits_b, 32)


# -- shard plan ----------------------------------------------------------------


def paint_coverage(plan: ShardPlan) -> np.ndarray:
    """Count how many shards claim each output cell."""
    mask = np.zeros((plan.blocking.m, plan.blocking.n), dtype=np.int64)
    for shard in plan.shards:
        m0, m1 = shard.m_range
        n0, n1 = shard.n_range
        mask[m0:m1, n0:n1] += 1
    return mask


class TestShardPlan:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_covers_output_disjointly(self, workers):
        blocking = BlockingPlan(m=37, n=91, k=11, m_c=8, k_c=4, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, workers)
        assert (paint_coverage(plan) == 1).all()

    def test_boundaries_aligned_to_micro_tiles(self):
        blocking = BlockingPlan(m=100, n=200, k=7, m_c=16, k_c=4, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, 4)
        for shard in plan.shards:
            assert shard.m_range[0] % blocking.m_r == 0
            assert shard.n_range[0] % blocking.n_r == 0
            # Interior shards end on a unit boundary too; only the last
            # band may carry the ragged remainder.
            if shard.m_range[1] != blocking.m:
                assert shard.m_range[1] % blocking.m_r == 0
            if shard.n_range[1] != blocking.n:
                assert shard.n_range[1] % blocking.n_r == 0

    def test_matches_blocking_plan_extents(self):
        blocking = BlockingPlan(m=64, n=128, k=9, m_c=16, k_c=3, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, 2)
        assert plan.blocking is blocking
        assert plan.k_panels() == blocking.k_panels()
        assert plan.total_word_ops() == blocking.total_ops()

    def test_tiny_problem_degenerates_to_one_shard(self):
        blocking = BlockingPlan(m=3, n=5, k=2, m_c=8, k_c=4, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, 8)
        assert plan.n_shards == 1
        assert plan.shards[0].m_range == (0, 3)
        assert plan.shards[0].n_range == (0, 5)

    def test_oversubscription_bounds_shard_count(self):
        # DEFAULT_OVERSUBSCRIBE aims for two shards per worker.
        blocking = BlockingPlan(m=512, n=512, k=8, m_c=32, k_c=4, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, 4)
        assert 4 <= plan.n_shards <= 4 * 2 * 2

    def test_shard_ids_contiguous(self):
        blocking = BlockingPlan(m=64, n=64, k=4, m_c=16, k_c=2, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, 4)
        assert [s.shard_id for s in plan.shards] == list(range(plan.n_shards))

    def test_from_grid_explicit(self):
        blocking = BlockingPlan(m=40, n=80, k=4, m_c=8, k_c=2, m_r=4, n_r=8)
        plan = ShardPlan.from_grid(blocking, 2, 5)
        assert plan.grid_rows == 2 and plan.grid_cols == 5
        assert (paint_coverage(plan) == 1).all()

    def test_word_ops_accounting(self):
        shard = Shard(0, 0, 0, (0, 12), (8, 24))
        assert shard.m_size == 12 and shard.n_size == 16
        assert shard.word_ops(5) == 12 * 16 * 5

    def test_invalid_arguments_rejected(self):
        blocking = BlockingPlan(m=8, n=8, k=2, m_c=4, k_c=2, m_r=4, n_r=4)
        with pytest.raises(ConfigurationError):
            ShardPlan.from_blocking(blocking, 0)
        with pytest.raises(ConfigurationError):
            ShardPlan.from_grid(blocking, 0, 1)


# -- engine: bit-exactness ------------------------------------------------------


class TestEngineBitExact:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("backend", PATHS)
    def test_matches_reference(self, operands, op, workers, backend):
        _, _, pa, pb = operands
        engine = ParallelEngine(workers=workers, backend=backend)
        try:
            c, report = engine.run(pa, pb, op, force_parallel=True)
        finally:
            engine.shutdown()
        assert c.dtype == np.int64
        assert (c == bit_gemm_reference(pa, pb, op)).all()
        assert report.used_parallel
        assert report.backend == backend

    @pytest.mark.parametrize("backend", PATHS)
    def test_ragged_extents(self, backend):
        rng = np.random.default_rng(3)
        bits_a = (rng.random((13, 257)) < 0.5).astype(np.uint8)
        bits_b = (rng.random((29, 257)) < 0.5).astype(np.uint8)
        pa, pb = pack_bits(bits_a, 32), pack_bits(bits_b, 32)
        plan = BlockingPlan(
            m=13, n=29, k=pa.shape[1], m_c=8, k_c=3, m_r=4, n_r=8
        )
        engine = ParallelEngine(workers=2, backend=backend)
        try:
            c, _ = engine.run(pa, pb, ComparisonOp.XOR, plan=plan,
                              force_parallel=True)
        finally:
            engine.shutdown()
        assert (c == bit_gemm_reference(pa, pb, ComparisonOp.XOR)).all()

    def test_uint64_operands(self):
        rng = np.random.default_rng(5)
        bits = (rng.random((21, 300)) < 0.5).astype(np.uint8)
        p64 = pack_bits(bits, 64)
        engine = ParallelEngine(workers=2)
        try:
            c, _ = engine.run(p64, p64, ComparisonOp.AND, force_parallel=True)
        finally:
            engine.shutdown()
        assert (c == bit_gemm_reference(p64, p64, ComparisonOp.AND)).all()

    def test_deterministic_across_runs(self, operands):
        _, _, pa, pb = operands
        engine = ParallelEngine(workers=4)
        try:
            first, _ = engine.run(pa, pb, ComparisonOp.XOR, force_parallel=True)
            second, _ = engine.run(pa, pb, ComparisonOp.XOR, force_parallel=True)
        finally:
            engine.shutdown()
        assert (first == second).all()

    def test_convenience_wrapper(self, operands):
        _, _, pa, pb = operands
        c = bit_gemm_parallel(pa, pb, ComparisonOp.ANDNOT, workers=2,
                              force_parallel=True)
        assert (c == bit_gemm_reference(pa, pb, ComparisonOp.ANDNOT)).all()


# -- engine: dispatch, report --------------------------------------------------


class TestEngineDispatch:
    def test_single_worker_stays_serial(self, operands, monkeypatch,
                                        pin_native):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        _, _, pa, pb = operands
        # The shape rule on a small problem, before and after cnative
        # loads: blas for 53 x 41 rows, numpy once either side has at
        # most 16 rows.
        for loaded, full, short in ((False, "blas", "numpy"),
                                    (True, "cnative", "cnative")):
            pin_native(loaded)
            for x, y, expected in ((pa, pb, full), (pa[:4], pb, short),
                                   (pa, pb[:16], short)):
                c, report = ParallelEngine(workers=1).run(x, y)
                assert not report.used_parallel
                assert report.backend == expected
                assert (c == bit_gemm_reference(x, y)).all()

    def test_small_problem_below_crossover_stays_serial(self, operands):
        _, _, pa, pb = operands
        # 53 * 41 * 17 word-ops is far below the 2**21 crossover.
        _, report = ParallelEngine(workers=4).run(pa, pb)
        assert not report.used_parallel
        assert report.n_shards == 1

    def test_report_accounts_every_output_cell(self, operands):
        _, _, pa, pb = operands
        engine = ParallelEngine(workers=4)
        try:
            _, report = engine.run(pa, pb, force_parallel=True)
        finally:
            engine.shutdown()
        assert report.n_shards == report.shard_plan.n_shards
        assert report.total_word_ops == report.shard_plan.total_word_ops()
        assert (paint_coverage(report.shard_plan) == 1).all()
        assert all(p.seconds >= 0 for p in report.shard_profiles)

    def test_invalid_operands_rejected(self, operands):
        _, _, pa, pb = operands
        engine = ParallelEngine(workers=1)
        with pytest.raises(PackingError):
            engine.run(pa.astype(np.float64), pb)
        with pytest.raises(PackingError):
            engine.run(pa, pb[:, :-1])
        with pytest.raises(PackingError):
            engine.run(pa.ravel(), pb)
        with pytest.raises(PackingError):
            engine.run(pa, pb, plan=BlockingPlan(m=1, n=1, k=1, m_c=4,
                                                 k_c=1, m_r=4, n_r=4))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelEngine(workers=0)
        with pytest.raises(ConfigurationError):
            ParallelEngine(backend="magic")
        with pytest.raises(TypeError):
            ParallelEngine(strategy="gemm")  # no strategy axis
        with pytest.raises(TypeError):
            ParallelEngine(executor="thread")  # no executor axis
        with pytest.raises(TypeError):
            ParallelEngine(crossover_ops=1)  # PARALLEL_CROSSOVER_OPS decides
        with pytest.raises(TypeError):
            ParallelEngine(oversubscribe=4)  # DEFAULT_OVERSUBSCRIBE decides

    def test_get_engine_shares_instances(self):
        assert get_engine(2) is get_engine(2)
        assert get_engine(2) is not get_engine(3)


# -- integration: executor, framework, multi-GPU, CLI ---------------------------


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationModel(60, 160, block_size=16), rng=2)


class TestIntegration:
    def test_framework_with_workers_bit_exact(self, population):
        serial = SNPComparisonFramework(GTX_980, Algorithm.LD)
        parallel = SNPComparisonFramework(GTX_980, Algorithm.LD, workers=4)
        entities = population.matrix.T.copy()
        c_serial, r_serial = serial.run(entities)
        c_parallel, r_parallel = parallel.run(entities)
        assert (c_parallel == c_serial).all()
        # Simulated timing is a pure function of the launch geometry;
        # host-side sharding must not perturb it.
        assert r_parallel.end_to_end_s == r_serial.end_to_end_s
        assert r_parallel.kernel_profiles == r_serial.kernel_profiles
        # Both tables come from the engine; this one is below the
        # crossover, so both ran as one shard.
        for report in (r_serial, r_parallel):
            assert not report.parallel.used_parallel
            assert report.parallel.n_shards == 1
        assert "workers=4" in repr(parallel)

    def test_multigpu_with_workers_bit_exact(self, population):
        queries = population.matrix[:8]
        database = population.matrix
        serial_table, serial_report = run_multi_gpu(
            QUAD_GTX980, Algorithm.FASTID_IDENTITY, queries, database
        )
        par_table, par_report = run_multi_gpu(
            QUAD_GTX980, Algorithm.FASTID_IDENTITY, queries, database,
            workers=2,
        )
        assert (par_table == serial_table).all()
        assert par_report.makespan_s == serial_report.makespan_s


class TestWorkloads:
    """All three applications, two threads vs serial, end to end.

    256 x 2,048-site operands put every launch above the 2**21 word-op
    crossover, so the threaded runs really shard."""

    @pytest.fixture(scope="class")
    def matrices(self):
        rng = np.random.default_rng(23)
        a = rng.integers(0, 2, size=(256, 2048), dtype=np.uint8)
        b = rng.integers(0, 2, size=(256, 2048), dtype=np.uint8)
        return a, b

    @staticmethod
    def sharded(report) -> bool:
        return report.parallel is not None and report.parallel.used_parallel

    def test_ld_bit_exact(self, matrices):
        a, _ = matrices
        serial = linkage_disequilibrium(a, compare="samples")
        threaded = linkage_disequilibrium(a, compare="samples", workers=2)
        assert self.sharded(threaded.report)
        assert (threaded.counts == serial.counts).all()

    def test_identity_bit_exact(self, matrices):
        a, b = matrices
        serial = identity_search(a, b)
        threaded = identity_search(a, b, workers=2)
        assert self.sharded(threaded.report)
        assert (threaded.distances == serial.distances).all()

    def test_mixture_bit_exact(self, matrices):
        a, b = matrices
        serial = mixture_analysis(a, b)
        threaded = mixture_analysis(a, b, workers=2)
        assert self.sharded(threaded.report)
        assert (threaded.scores == serial.scores).all()


class TestCliWorkers:
    @pytest.fixture
    def dataset_file(self, tmp_path):
        ds = generate_population(PopulationModel(24, 48, block_size=8), rng=4)
        path = tmp_path / "pop.snptxt"
        write_snptxt(path, ds)
        return str(path)

    def test_ld_accepts_workers(self, dataset_file, capsys):
        assert main(["ld", "--input", dataset_file, "--workers", "2"]) == 0
        assert "LD on" in capsys.readouterr().out

    def test_workers_zero_picks_machine_default(self, dataset_file, capsys):
        assert main(["ld", "--input", dataset_file, "--workers", "0"]) == 0
        capsys.readouterr()

    def test_negative_workers_rejected(self, dataset_file, capsys):
        assert main(["ld", "--input", dataset_file, "--workers", "-3"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestWorkersValidation:
    """One shared validator behind every workers-accepting entry point."""

    def test_check_workers_contract(self):
        assert check_workers("x", 3) == 3
        assert check_workers("x", 0, zero_means_default=True) == 0
        with pytest.raises(ValueError, match="x"):
            check_workers("x", 0)
        with pytest.raises(ValueError):
            check_workers("x", -1, zero_means_default=True)
        with pytest.raises(ValueError, match="integer"):
            check_workers("x", 2.0)
        with pytest.raises(ValueError, match="integer"):
            check_workers("x", True)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_engine_rejects(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            ParallelEngine(workers=workers)

    #: Every framework-backed entry point, called with a bad count.
    BITS = np.ones((8, 64), dtype=np.uint8)
    ENTRY_POINTS = {
        "framework": lambda w: SNPComparisonFramework(
            GTX_980, Algorithm.LD, workers=w
        ),
        "linkage_disequilibrium": lambda w: linkage_disequilibrium(
            TestWorkersValidation.BITS, workers=w
        ),
        "identity_search": lambda w: identity_search(
            TestWorkersValidation.BITS, TestWorkersValidation.BITS, workers=w
        ),
        "mixture_analysis": lambda w: mixture_analysis(
            TestWorkersValidation.BITS, TestWorkersValidation.BITS, workers=w
        ),
        "StreamingIdentitySearch": lambda w: StreamingIdentitySearch(
            TestWorkersValidation.BITS, workers=w
        ),
        "StreamingLD": lambda w: StreamingLD(workers=w),
        "StreamingMixture": lambda w: StreamingMixture(
            TestWorkersValidation.BITS, workers=w
        ),
        "run_multi_gpu": lambda w: run_multi_gpu(
            QUAD_GTX980, Algorithm.FASTID_IDENTITY,
            TestWorkersValidation.BITS, TestWorkersValidation.BITS,
            workers=w,
        ),
    }

    @pytest.mark.parametrize("workers", [0, -1, True, "2"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_framework_entry_points_reject(self, entry, workers):
        # None and 1 stay serial; anything that is not a positive
        # integer fails up front instead of silently running serial.
        with pytest.raises(ConfigurationError, match="workers"):
            self.ENTRY_POINTS[entry](workers)

    def test_identity_service_rejects(self):
        from repro.serve import IdentityService, ProfileIndex

        index = ProfileIndex(n_bits=64)
        index.append(np.ones((4, 64), dtype=np.uint8))
        with index:
            with pytest.raises(ConfigurationError, match="workers"):
                IdentityService(index, workers=0)

    def test_cli_rejects_negative(self, tmp_path, capsys):
        from repro.snp.dataset import SNPDataset

        path = tmp_path / "pop.snptxt"
        matrix = np.ones((8, 32), dtype=np.uint8)
        write_snptxt(path, SNPDataset(matrix=matrix))
        code = main([
            "ld", "--input", str(path), "--compare", "samples",
            "--workers", "-2",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
