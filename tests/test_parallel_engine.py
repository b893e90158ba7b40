"""Tests for repro.parallel: shard plan and parallel engine."""

import numpy as np
import pytest

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.cli import main
from repro.core.framework import SNPComparisonFramework
from repro.core.config import Algorithm
from repro.errors import ConfigurationError, PackingError
from repro.gpu.arch import GTX_980
from repro.gpu.executor import execute_kernel
from repro.gpu.kernel import SnpKernel
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

OPS = [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]
WORKERS = [1, 2, 4]
#: The two host paths, by test id: the dense identity GEMM (``blas``)
#: and the blocked five-loop walk (``blis``).
PATHS = [pytest.param("blas", id="gemm"), pytest.param("blis", id="blocked")]


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
        blocking = BlockingPlan(m=512, n=512, k=8, m_c=32, k_c=4, m_r=4, n_r=8)
        plan = ShardPlan.from_blocking(blocking, 4, oversubscribe=2)
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
            ShardPlan.from_blocking(blocking, 2, oversubscribe=0)
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
    def test_single_worker_stays_serial(self, operands, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        _, _, pa, pb = operands
        c, report = ParallelEngine(workers=1).run(pa, pb)
        assert not report.used_parallel
        assert report.backend == "blis"  # the size rule, small problem
        assert (c == bit_gemm_reference(pa, pb)).all()

    def test_small_problem_below_crossover_stays_serial(self, operands):
        _, _, pa, pb = operands
        # 53 * 41 * 17 word-ops is far below the 2**21 crossover.
        _, report = ParallelEngine(workers=4).run(pa, pb)
        assert not report.used_parallel
        assert report.n_shards == 1

    def test_crossover_threshold_configurable(self, operands):
        _, _, pa, pb = operands
        engine = ParallelEngine(workers=2, crossover_ops=1)
        try:
            _, report = engine.run(pa, pb)
        finally:
            engine.shutdown()
        assert report.used_parallel

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

    def test_get_engine_shares_instances(self):
        assert get_engine(2) is get_engine(2)
        assert get_engine(2) is not get_engine(3)


# -- integration: executor, framework, multi-GPU, CLI ---------------------------


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationModel(60, 160, block_size=16), rng=2)


class TestIntegration:
    def test_execute_kernel_with_workers(self):
        kernel = SnpKernel.compile(
            GTX_980, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=384,
            grid_rows=4, grid_cols=4,
        )
        rng = np.random.default_rng(11)
        bits_a = (rng.random((40, 300)) < 0.4).astype(np.uint8)
        bits_b = (rng.random((35, 300)) < 0.4).astype(np.uint8)
        pa, pb = pack_bits(bits_a, 32), pack_bits(bits_b, 32)
        serial_c, serial_p = execute_kernel(kernel, pa, pb)
        par_c, par_p = execute_kernel(kernel, pa, pb, workers=4)
        assert (par_c == serial_c).all()
        # Simulated timing is a pure function of the launch geometry;
        # host-side sharding must not perturb it.
        assert par_p.seconds == serial_p.seconds
        assert par_p.parallel is not None
        assert serial_p.parallel is None

    def test_framework_with_workers_bit_exact(self, population):
        serial = SNPComparisonFramework(GTX_980, Algorithm.LD)
        parallel = SNPComparisonFramework(GTX_980, Algorithm.LD, workers=4)
        entities = population.matrix.T.copy()
        c_serial, r_serial = serial.run(entities)
        c_parallel, r_parallel = parallel.run(entities)
        assert (c_parallel == c_serial).all()
        assert r_parallel.end_to_end_s == r_serial.end_to_end_s
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
