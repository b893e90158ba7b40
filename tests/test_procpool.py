"""Tests for repro.parallel.procpool: the process executor tier.

Covers the acceptance gates of the process tier (docs/DISTRIBUTED.md):
bit-exactness against the serial reference and the thread tier on all
three workloads, merged deterministic counters identical to a threaded
run, worker-loss recovery with exact ``resilience.workers_lost``
accounting and no orphaned shared-memory segments, executor-aware
tuning records with legacy degradation, and the shared ``workers``
validator at every entry point.
"""

import os

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.core.identity import identity_search
from repro.core.ld import linkage_disequilibrium
from repro.core.mixture import mixture_analysis
from repro.errors import ConfigurationError, ShardExecutionError
from repro.io_stream import write_snpbin
from repro.io_stream.format import PackedDatasetReader, packed_words_ref
from repro.observability.regress import DETERMINISTIC_COUNTERS
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel import ParallelEngine, ProcessShardExecutor
from repro.parallel.engine import REPRO_EXECUTOR_ENV
from repro.parallel.procpool import REPRO_MP_START_ENV
from repro.parallel.tuner import TuningRecord, lookup_tuned, tuning_key
from repro.resilience.runtime import resilient
from repro.util.bitops import pack_bits
from repro.util.validation import check_workers

OP = ComparisonOp.AND

#: Rows x sites above the parallel crossover (2^21 word-ops) so the
#: framework-level workload tests actually engage the sharded path.
WORKLOAD_ROWS = 256
WORKLOAD_SITES = 2048


def shm_segments() -> set:
    """Names of live POSIX shared-memory segments (Linux only)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def deterministic_counters(engine, pa, pb, **kwargs) -> dict:
    """DETERMINISTIC_COUNTERS snapshot of one instrumented run."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        engine.run(pa, pb, OP, force_parallel=True, **kwargs)
    finally:
        set_tracer(previous)
    return {
        name: value
        for name, value in tracer.counters.snapshot().items()
        if name in DETERMINISTIC_COUNTERS
    }


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(11)
    bits_a = (rng.random((96, 512)) < 0.4).astype(np.uint8)
    bits_b = (rng.random((128, 512)) < 0.6).astype(np.uint8)
    return pack_bits(bits_a, 32), pack_bits(bits_b, 32)


@pytest.fixture(scope="module")
def proc_engine():
    engine = ParallelEngine(workers=2, executor="process")
    yield engine
    engine.shutdown()


class TestProcessExecutor:
    @pytest.mark.parametrize(
        "op", [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]
    )
    def test_bit_exact_vs_serial_and_thread(self, operands, proc_engine, op):
        pa, pb = operands
        expected = bit_gemm_reference(pa, pb, op)
        thread_engine = ParallelEngine(workers=2, executor="thread")
        try:
            thread_table, _ = thread_engine.run(
                pa, pb, op, force_parallel=True
            )
        finally:
            thread_engine.shutdown()
        table, report = proc_engine.run(pa, pb, op, force_parallel=True)
        assert report.executor == "process"
        assert report.n_shards > 1
        assert (table == expected).all()
        assert (table == thread_table).all()

    def test_gram_self_comparison(self, operands, proc_engine):
        pa, _ = operands
        expected = bit_gemm_reference(pa, pa, OP)
        table, report = proc_engine.run(pa, pa, OP, force_parallel=True)
        assert report.symmetric
        assert report.executor == "process"
        assert (table == expected).all()
        assert (table == table.T).all()

    def test_clean_run_report_fields(self, operands, proc_engine):
        pa, pb = operands
        _, report = proc_engine.run(pa, pb, OP, force_parallel=True)
        assert report.workers_lost == 0
        assert report.worker_events == ()
        assert len(report.shard_profiles) == report.n_shards

    def test_single_shard_falls_back_to_thread(self):
        pa = pack_bits(np.ones((4, 32), dtype=np.uint8), 32)
        engine = ParallelEngine(workers=2, executor="process")
        try:
            table, report = engine.run(pa, pa, OP, force_parallel=True)
        finally:
            engine.shutdown()
        # Nothing to parallelize: the report names the tier that ran.
        assert report.n_shards == 1
        assert report.executor == "thread"
        assert (table == bit_gemm_reference(pa, pa, OP)).all()

    def test_deterministic_counters_match_thread(self, operands, proc_engine):
        pa, pb = operands
        thread_engine = ParallelEngine(workers=2, executor="thread")
        try:
            thread_counters = deterministic_counters(thread_engine, pa, pb)
        finally:
            thread_engine.shutdown()
        process_counters = deterministic_counters(proc_engine, pa, pb)
        assert process_counters == thread_counters
        assert process_counters["shards.executed"] > 1

    def test_concurrent_runs_on_shared_engine(self, operands, proc_engine):
        # Engines are shared process-wide (get_engine), and pipelined
        # serving dispatches batches concurrently: runs must serialize
        # on the executor's run lock instead of stealing each other's
        # claim/done messages off the single result queue.
        from concurrent.futures import ThreadPoolExecutor as TPE

        pa, pb = operands
        ops = [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]

        def one(op):
            table, report = proc_engine.run(pa, pb, op, force_parallel=True)
            return op, table, report

        with TPE(max_workers=len(ops)) as pool:
            futures = [pool.submit(one, op) for op in ops]
            results = [f.result(timeout=120) for f in futures]
        for op, table, report in results:
            assert report.executor == "process"
            assert (table == bit_gemm_reference(pa, pb, op)).all()

    def test_mmap_operand_publishes_zero_copy(self, tmp_path, proc_engine):
        rng = np.random.default_rng(5)
        bits = (rng.random((192, 1024)) < 0.5).astype(np.uint8)
        path = tmp_path / "db.snpbin"
        write_snpbin(path, bits, word_bits=32)
        with PackedDatasetReader(path) as reader:
            words = reader.read_words(0, reader.n_rows)
            # File-backed operands travel by (path, offset, shape) --
            # no copy into a shared-memory segment.
            assert packed_words_ref(words) is not None
            pb = pack_bits(bits, 32)
            expected = bit_gemm_reference(pb, pb, OP)
            table, report = proc_engine.run(
                words, words, OP, force_parallel=True
            )
        assert report.executor == "process"
        assert (table == expected).all()

    def test_cow_memmap_falls_back_to_shared_memory(self, tmp_path):
        # mode="c" (copy-on-write) mappings can hold parent-side edits
        # that never reach the file; a worker re-mapping the file would
        # silently compute against different data.  They must publish
        # through the shared-memory copy path, not the mmap ref.
        rng = np.random.default_rng(7)
        shape = (128, 32)
        words = rng.integers(0, 2**32, size=shape, dtype=np.uint64)
        path = tmp_path / "raw.bin"
        words.tofile(path)
        ro = np.memmap(path, dtype=np.uint64, mode="r", shape=shape)
        assert packed_words_ref(ro) is not None
        cow = np.memmap(path, dtype=np.uint64, mode="c", shape=shape)
        assert packed_words_ref(cow) is None
        # End to end: a COW-modified operand must give the same result
        # under the process executor as the serial reference sees.
        cow[0, :] ^= np.uint64(0xFFFF)
        expected = bit_gemm_reference(
            np.array(cow, copy=True), np.array(cow, copy=True), OP
        )
        engine = ParallelEngine(workers=2, executor="process")
        try:
            table, report = engine.run(cow, cow, OP, force_parallel=True)
        finally:
            engine.shutdown()
        assert report.executor == "process"
        assert (table == expected).all()


class TestWorkloads:
    """All three applications, process vs thread, end to end."""

    @pytest.fixture(scope="class")
    def matrices(self):
        rng = np.random.default_rng(23)
        a = rng.integers(
            0, 2, size=(WORKLOAD_ROWS, WORKLOAD_SITES), dtype=np.uint8
        )
        b = rng.integers(
            0, 2, size=(WORKLOAD_ROWS, WORKLOAD_SITES), dtype=np.uint8
        )
        return a, b

    def test_ld_bit_exact(self, matrices):
        a, _ = matrices
        threaded = linkage_disequilibrium(
            a, compare="samples", workers=2, executor="thread"
        )
        processed = linkage_disequilibrium(
            a, compare="samples", workers=2, executor="process"
        )
        assert (processed.counts == threaded.counts).all()

    def test_identity_bit_exact(self, matrices):
        a, b = matrices
        threaded = identity_search(a, b, workers=2, executor="thread")
        processed = identity_search(a, b, workers=2, executor="process")
        assert (processed.distances == threaded.distances).all()

    def test_mixture_bit_exact(self, matrices):
        a, b = matrices
        threaded = mixture_analysis(a, b, workers=2, executor="thread")
        processed = mixture_analysis(a, b, workers=2, executor="process")
        assert (processed.scores == threaded.scores).all()


class TestWorkerLoss:
    """Targeted worker kills fire when the victim receives a shard.  The
    parent hands every live worker one shard before any worker gets a
    second, so a kill fires on every run whose plan has at least one
    shard per worker, however the workers race."""

    @pytest.fixture(scope="class")
    def loss_operands(self):
        rng = np.random.default_rng(31)
        bits_a = (rng.random((256, 2048)) < 0.4).astype(np.uint8)
        bits_b = (rng.random((256, 2048)) < 0.6).astype(np.uint8)
        return pack_bits(bits_a, 32), pack_bits(bits_b, 32)

    def test_worker_lost_recovers_exactly(self, loss_operands):
        pa, pb = loss_operands
        expected = bit_gemm_reference(pa, pb, OP)
        before = shm_segments()
        engine = ParallelEngine(workers=2, executor="process")
        try:
            engine.run(pa, pb, OP, force_parallel=True)  # warm the pool
            with resilient("worker-lost@1"):
                table, report = engine.run(pa, pb, OP, force_parallel=True)
                assert (table == expected).all()
                assert report.workers_lost == 1
                res = report.resilience
                assert res is not None
                assert res.workers_lost == 1
                assert not res.clean
                fired = [
                    e for e in res.events if e.kind == "worker-lost"
                ]
                assert (
                    [(e.target, e.site) for e in fired]
                    == [(1, "procpool")]
                )
                # Survivors re-executed the dead worker's unfinished
                # shards; every shard still landed exactly once.
                assert len(report.shard_profiles) == report.n_shards
            # Outside the fault scope the pool self-heals: the next
            # run respawns the dead worker and loses nothing.
            table2, report2 = engine.run(pa, pb, OP, force_parallel=True)
            assert (table2 == expected).all()
            assert report2.workers_lost == 0
        finally:
            engine.shutdown()
        assert shm_segments() <= before  # no orphaned segments

    def test_all_workers_lost_raises(self, operands):
        pa, pb = operands
        engine = ParallelEngine(workers=2, executor="process")
        try:
            with resilient("worker-lost@0,worker-lost@1"):
                with pytest.raises(ShardExecutionError):
                    engine.run(pa, pb, OP, force_parallel=True)
            # Outside the fault scope a clean rerun succeeds on a
            # freshly respawned pool.
            table, report = engine.run(pa, pb, OP, force_parallel=True)
            assert report.workers_lost == 0
            assert (table == bit_gemm_reference(pa, pb, OP)).all()
        finally:
            engine.shutdown()

    def test_counters_stay_exact_across_loss(self, loss_operands):
        pa, pb = loss_operands
        clean_engine = ParallelEngine(workers=2, executor="process")
        try:
            clean = deterministic_counters(clean_engine, pa, pb)
        finally:
            clean_engine.shutdown()
        lossy_engine = ParallelEngine(workers=2, executor="process")
        try:
            lossy_engine.run(pa, pb, OP, force_parallel=True)  # warm pool
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                with resilient("worker-lost@0"):
                    lossy_engine.run(pa, pb, OP, force_parallel=True)
            finally:
                set_tracer(previous)
        finally:
            lossy_engine.shutdown()
        lossy = {
            name: value
            for name, value in tracer.counters.snapshot().items()
            if name in DETERMINISTIC_COUNTERS
        }
        assert lossy == clean
        assert tracer.counters.snapshot()["resilience.workers_lost"] == 1

    def test_targeted_loss_fires_with_more_workers_than_cores(
        self, loss_operands
    ):
        # Four workers outnumber the cores of a small host, and no run
        # is warmed: the victim is still handed a shard on every run.
        pa, pb = loss_operands
        expected = bit_gemm_reference(pa, pb, OP)
        engine = ParallelEngine(workers=4, executor="process")
        try:
            for _ in range(3):
                with resilient("worker-lost@3"):
                    table, report = engine.run(
                        pa, pb, OP, force_parallel=True
                    )
                assert report.n_shards >= 4
                assert report.workers_lost == 1
                assert len(report.shard_profiles) == report.n_shards
                assert (table == expected).all()
        finally:
            engine.shutdown()


class TestEnvResolution:
    def test_env_forces_process(self, operands, monkeypatch):
        pa, pb = operands
        monkeypatch.setenv(REPRO_EXECUTOR_ENV, "process")
        engine = ParallelEngine(workers=2)  # executor="auto"
        try:
            _, report = engine.run(pa, pb, OP, force_parallel=True)
        finally:
            engine.shutdown()
        assert report.executor == "process"

    def test_env_empty_is_ignored(self, operands, monkeypatch):
        pa, pb = operands
        monkeypatch.setenv(REPRO_EXECUTOR_ENV, "")
        engine = ParallelEngine(workers=2)
        try:
            _, report = engine.run(pa, pb, OP, force_parallel=True)
        finally:
            engine.shutdown()
        assert report.executor == "thread"

    def test_env_invalid_rejected(self, operands, monkeypatch):
        pa, pb = operands
        monkeypatch.setenv(REPRO_EXECUTOR_ENV, "rocket")
        engine = ParallelEngine(workers=2)
        try:
            with pytest.raises(ConfigurationError):
                engine.run(pa, pb, OP, force_parallel=True)
        finally:
            engine.shutdown()

    def test_invalid_start_method_rejected(self, operands, monkeypatch):
        pa, pb = operands
        monkeypatch.setenv(REPRO_MP_START_ENV, "bogus")
        engine = ParallelEngine(workers=2, executor="process")
        try:
            with pytest.raises(ConfigurationError):
                engine.run(pa, pb, OP, force_parallel=True)
        finally:
            engine.shutdown()


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

    def test_process_pool_rejects(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ProcessShardExecutor(workers=0)

    def test_identity_service_rejects(self):
        from repro.serve import IdentityService, ProfileIndex

        index = ProfileIndex(n_bits=64)
        index.append(np.ones((4, 64), dtype=np.uint8))
        with index:
            with pytest.raises(ConfigurationError, match="workers"):
                IdentityService(index, workers=0)

    def test_cli_rejects_negative(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.snp.dataset import SNPDataset
        from repro.snp.io import write_snptxt

        path = tmp_path / "pop.snptxt"
        matrix = np.ones((8, 32), dtype=np.uint8)
        write_snptxt(path, SNPDataset(matrix=matrix))
        code = cli_main([
            "ld", "--input", str(path), "--compare", "samples",
            "--workers", "-2",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_cli_executor_flag_accepted(self, tmp_path):
        from repro.cli import main as cli_main
        from repro.snp.dataset import SNPDataset
        from repro.snp.io import write_snptxt

        path = tmp_path / "pop.snptxt"
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2, size=(16, 64), dtype=np.uint8)
        write_snptxt(path, SNPDataset(matrix=matrix))
        code = cli_main([
            "ld", "--input", str(path), "--compare", "samples",
            "--workers", "2", "--executor", "process",
        ])
        assert code == 0


class TestLazyProcpoolImport:
    def test_package_import_stays_lazy(self):
        # The process tier pulls in multiprocessing machinery most runs
        # never need; importing repro.parallel must not pay for it.
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.parallel\n"
            "assert 'repro.parallel.procpool' not in sys.modules, "
            "'procpool imported eagerly'\n"
            "from repro.parallel import ProcessShardExecutor\n"
            "assert 'repro.parallel.procpool' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestTunerExecutorAxis:
    def test_key_suffix_separates_tiers(self):
        thread_key = tuning_key(OP, 256, 256, 16, 32, 4)
        process_key = tuning_key(OP, 256, 256, 16, 32, 4, executor="process")
        assert thread_key != process_key
        assert process_key.endswith("|exprocess")
        # Thread keys keep the legacy unsuffixed form, so caches
        # persisted before the executor axis existed still resolve.
        assert "|ex" not in thread_key

    def test_key_rejects_unknown_executor(self):
        with pytest.raises(ConfigurationError):
            tuning_key(OP, 256, 256, 16, 32, 4, executor="rocket")

    def test_record_roundtrip_keeps_executor(self):
        record = TuningRecord(
            backend="blas", triangular=False, crossover_ops=None,
            best_seconds=0.5, candidates=4, executor="process",
        )
        assert TuningRecord.from_json(record.to_json()).executor == "process"

    def test_stale_record_degrades_to_thread(self):
        record = TuningRecord(
            backend="blas", triangular=False, crossover_ops=None,
            best_seconds=0.5, candidates=4,
        )
        payload = record.to_json()
        del payload["executor"]  # a record persisted before the field
        assert TuningRecord.from_json(payload).executor == "thread"

    def test_record_rejects_unknown_executor(self):
        record = TuningRecord(
            backend="blas", triangular=False, crossover_ops=None,
            best_seconds=0.5, candidates=4,
        )
        payload = record.to_json()
        payload["executor"] = "rocket"
        with pytest.raises(ValueError):
            TuningRecord.from_json(payload)

    def test_lookup_is_executor_scoped(self, tmp_path, monkeypatch):
        from repro.parallel import tuner

        cache = tuner.configure_tuning(tmp_path / "tuning.json")
        record = TuningRecord(
            backend="blis", triangular=False, crossover_ops=None,
            best_seconds=0.25, candidates=2, executor="process",
        )
        cache.store(
            tuning_key(OP, 256, 256, 16, 32, 4, executor="process"), record
        )
        try:
            assert lookup_tuned(OP, 256, 256, 16, 32, 4) is None
            found = lookup_tuned(
                OP, 256, 256, 16, 32, 4, executor="process"
            )
            assert found is not None and found.executor == "process"
        finally:
            tuner.configure_tuning(None)
