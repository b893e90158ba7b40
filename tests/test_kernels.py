"""Tests for the kernel ABI (:mod:`repro.kernels`): backend conformance,
registry resolution, the one size rule, engine/tuner integration, and
the CLI flag."""

import os

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm, bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.errors import ConfigurationError, PackingError
from repro.kernels import (
    BLIS_OP_LIMIT,
    REPRO_BACKEND_ENV,
    BackendInfo,
    KernelBackend,
    NumbaBackend,
    available_backends,
    backend_available,
    backend_fingerprint,
    backend_names,
    canonicalize_words,
    check_panel_operands,
    env_backend_name,
    get_backend,
    pick_backend,
    register_backend,
    registered_backends,
    resolve_backend_name,
)
from repro.kernels import blas_backend
from repro.kernels.numba_backend import HAVE_NUMBA
from repro.observability.counters import GEMM_CALLS, GEMM_WORD_OPS
from repro.observability.regress import DETERMINISTIC_COUNTERS
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel.engine import ParallelEngine
from repro.parallel.tuner import TuningCache, TuningRecord, tuning_key
from repro.util.bitops import popcount

ALL_OPS = [
    ComparisonOp.AND,
    ComparisonOp.XOR,
    ComparisonOp.ANDNOT,
    ComparisonOp.AND_PRENEGATED,
]

WORD_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


def make_words(m, k, dtype, seed=0):
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    return rng.integers(0, int(info.max) + 1, size=(m, k), dtype=dtype)


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)


def traced(fn):
    """Run ``fn()`` under a fresh tracer; returns (result, counters)."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = fn()
    finally:
        set_tracer(previous)
    return result, tracer.counters.snapshot()


def deterministic(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k in DETERMINISTIC_COUNTERS}


# -- ABI conformance: every registered backend ----------------------------------


class TestBackendConformance:
    def test_registry_has_builtins(self):
        names = backend_names()
        for expected in ("numpy", "blas", "blis", "numba", "cnative"):
            assert expected in names
        assert "sim" not in names

    def test_info_descriptors_are_wellformed(self):
        for backend in registered_backends():
            info = backend.info
            assert isinstance(info, BackendInfo)
            assert info.name and info.kind and info.version
            assert info.kind in ("reference", "blas", "walk", "jit", "native")
            if not info.available:
                assert info.unavailable_reason

    def test_reference_backend_always_available(self):
        info = get_backend("numpy").info
        assert info.available
        assert not info.compiled
        assert not info.tunable  # the oracle, not a candidate
        for name in ("blas", "blis"):
            assert get_backend(name).info.available
            assert get_backend(name).info.tunable

    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_panel_bit_exact_vs_reference(self, op, dtype):
        a = make_words(7, 5, dtype, seed=1)
        b = make_words(9, 5, dtype, seed=2)
        expected = bit_gemm_reference(a, b, op)
        for backend in available_backends():
            got = backend.bit_gemm_panel(a, b, op)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), backend.info.name

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (4, 4, 0), (0, 0, 0)])
    def test_panel_empty_extents(self, shape):
        m, n, k = shape
        a = make_words(m, k, np.uint64)
        b = make_words(n, k, np.uint64)
        for backend in available_backends():
            got = backend.bit_gemm_panel(a, b, ComparisonOp.XOR)
            assert got.shape == (m, n), backend.info.name
            assert got.dtype == np.int64

    def test_panel_ragged_tail_words(self):
        # k not a multiple of the uint64 canonicalisation width.
        for k in (1, 3, 5, 7):
            a = make_words(6, k, np.uint16, seed=k)
            b = make_words(4, k, np.uint16, seed=k + 100)
            expected = bit_gemm_reference(a, b, ComparisonOp.AND)
            for backend in available_backends():
                got = backend.bit_gemm_panel(a, b, ComparisonOp.AND)
                assert np.array_equal(got, expected), (backend.info.name, k)

    def test_panel_validates_operands(self):
        a = make_words(4, 3, np.uint32)
        for backend in available_backends():
            with pytest.raises(PackingError):
                backend.bit_gemm_panel(a, make_words(4, 5, np.uint32))
            with pytest.raises(PackingError):
                backend.bit_gemm_panel(a, make_words(4, 3, np.uint64))
            with pytest.raises(PackingError):
                backend.bit_gemm_panel(a.astype(np.int64), a)

    def test_pack_matches_reference_packer(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((5, 70)) < 0.5).astype(np.uint8)
        reference = get_backend("numpy").pack(bits)
        for backend in available_backends():
            assert np.array_equal(backend.pack(bits), reference)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_every_backend_executor_and_plan_shape(self, executor, clean_env):
        # Every available backend x {full, triangular} plan is bit-exact
        # with equal deterministic counters, on threads and processes.
        a = make_words(96, 6, np.uint32, seed=91)
        b = make_words(80, 6, np.uint32, seed=92)
        cases = {
            "full": (a, b, ComparisonOp.XOR, False),
            "triangular": (a, a, ComparisonOp.AND, True),
        }
        seen: dict[str, set] = {shape: set() for shape in cases}
        for backend in available_backends():
            name = backend.name
            engine = ParallelEngine(workers=2, backend=name, executor=executor)
            try:
                for shape, (x, y, op, symmetric) in cases.items():
                    (table, report), counters = traced(
                        lambda: engine.run(
                            x, y, op, force_parallel=True, symmetric=symmetric
                        )
                    )
                    assert np.array_equal(
                        table, bit_gemm_reference(x, y, op)
                    ), (name, shape)
                    assert (report.backend, report.executor) == (name, executor)
                    assert (report.n_mirrored > 0) == symmetric
                    seen[shape].add(tuple(sorted(deterministic(counters).items())))
            finally:
                engine.shutdown()
        # Equal deterministic counters whichever backend ran.
        assert all(len(counters) == 1 for counters in seen.values()), seen

    def test_popcount_reduce_exact(self):
        words = make_words(6, 9, np.uint64, seed=5)
        expected_total = int(popcount(words).sum())
        expected_rows = popcount(words).sum(axis=1)
        for backend in available_backends():
            assert backend.popcount_reduce(words) == expected_total
            assert np.array_equal(
                backend.popcount_reduce(words, axis=1), expected_rows
            )


# -- registry + resolution -------------------------------------------------------


class TestRegistry:
    def test_get_backend_unknown_raises_with_listing(self):
        with pytest.raises(ConfigurationError, match="registered"):
            get_backend("warp")

    def test_register_backend_duplicate_requires_replace(self):
        numpy_backend = get_backend("numpy")
        with pytest.raises(ConfigurationError):
            register_backend(numpy_backend)
        register_backend(numpy_backend, replace=True)  # restores itself

    def test_backend_available(self):
        assert backend_available("numpy")
        assert not backend_available("missing")

    def test_resolve_explicit_and_auto(self, clean_env):
        # "auto" names no backend: the caller's size rule decides.
        assert resolve_backend_name(None) is None
        assert resolve_backend_name("auto") is None
        assert resolve_backend_name("numpy") == "numpy"
        assert resolve_backend_name("blas") == "blas"
        with pytest.raises(ConfigurationError):
            resolve_backend_name("nope")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        assert env_backend_name() == "numpy"
        assert resolve_backend_name("auto") == "numpy"
        monkeypatch.setenv(REPRO_BACKEND_ENV, "auto")
        assert env_backend_name() is None
        monkeypatch.setenv(REPRO_BACKEND_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            env_backend_name()

    def test_fingerprint_lists_tunable_backends(self):
        fp = backend_fingerprint()
        assert "blas=" in fp and "blis=" in fp
        assert "numpy=" not in fp  # the oracle is not tunable


# -- canonicalisation ------------------------------------------------------------


class TestCanonicalize:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_popcount_preserved(self, dtype):
        w = make_words(5, 7, dtype, seed=11)
        canon = canonicalize_words(w)
        assert canon.dtype == np.uint64
        assert int(popcount(canon).sum()) == int(popcount(w).sum())

    def test_uint64_passthrough(self):
        w = make_words(3, 4, np.uint64)
        assert canonicalize_words(w) is w or np.shares_memory(
            canonicalize_words(w), w
        )

    def test_pairwise_ops_preserved(self):
        a = make_words(4, 6, np.uint8, seed=21)
        b = make_words(3, 6, np.uint8, seed=22)
        ca, cb = canonicalize_words(a), canonicalize_words(b)
        for op in ALL_OPS:
            expected = bit_gemm_reference(a, b, op)
            got = bit_gemm_reference(ca, cb, op)
            assert np.array_equal(got, expected), op


# -- numba backend without numba ---------------------------------------------


class TestNumbaFallback:
    def test_backend_reports_fallback_capabilities(self):
        # Without Numba the backend is registered but unavailable, like
        # cnative without a compiler; there is no pure-python fallback.
        backend = get_backend("numba")
        info = backend.info
        assert info.available == HAVE_NUMBA
        assert info.compiled == HAVE_NUMBA
        assert info.tunable == HAVE_NUMBA
        if not HAVE_NUMBA:
            assert info.unavailable_reason
            a = make_words(2, 2, np.uint64)
            with pytest.raises(ConfigurationError):
                backend.bit_gemm_panel(a, a)
            with pytest.raises(ConfigurationError):
                resolve_backend_name("numba")


# -- bit_gemm serial driver and the size rule ------------------------------------


class TestBitGemmBackendDriver:
    def test_matches_reference_and_counts(self, clean_env):
        a = make_words(8, 4, np.uint32, seed=41)
        b = make_words(6, 4, np.uint32, seed=42)
        expected = bit_gemm_reference(a, b, ComparisonOp.XOR)
        got, snapshot = traced(lambda: bit_gemm(a, b, ComparisonOp.XOR))
        assert np.array_equal(got, expected)
        assert snapshot[GEMM_CALLS] == 1
        assert snapshot[GEMM_WORD_OPS] == 8 * 6 * 4

    def test_word_op_accounting_is_backend_invariant(self):
        a = make_words(5, 3, np.uint64, seed=51)
        b = make_words(7, 3, np.uint64, seed=52)
        snapshots = set()
        for backend in available_backends():
            got, snap = traced(
                lambda: bit_gemm(a, b, backend=backend.info.name)
            )
            assert np.array_equal(got, bit_gemm_reference(a, b))
            snapshots.add((snap.get(GEMM_CALLS), snap.get(GEMM_WORD_OPS)))
        assert snapshots == {(1, 5 * 7 * 3)}

    def test_unknown_backend_raises(self):
        a = make_words(2, 2, np.uint32)
        with pytest.raises(ConfigurationError):
            bit_gemm(a, a, backend="warp")
        with pytest.raises(ConfigurationError):
            # Validated even where the Gram rule would pick blis anyway.
            bit_gemm(a, a, backend="warp", symmetric=True)


class TestSizeRule:
    def test_rule_at_the_limit(self, clean_env):
        assert BLIS_OP_LIMIT == 2_000_000
        for symmetric in (False, True):
            assert pick_backend(2_000_000, symmetric) == "blis"
            assert pick_backend(2_000_001, symmetric) == "blas"
        # A named backend runs as named, except Gram runs up to the
        # limit, which keep the blis triangle walk.
        assert pick_backend(2_000_000, False, "numpy") == "numpy"
        assert pick_backend(2_000_000, True, "numpy") == "blis"
        assert pick_backend(2_000_001, True, "numpy") == "numpy"

    def test_env_names_the_backend(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        assert pick_backend(2_000_001) == "numpy"
        assert pick_backend(2_000_000, True) == "blis"

    @staticmethod
    def _serial(a, b, op=ComparisonOp.AND):
        engine = ParallelEngine(workers=1)
        (table, report), counters = traced(lambda: engine.run(a, b, op))
        assert np.array_equal(table, bit_gemm_reference(a, b, op))
        return report.backend, counters[GEMM_CALLS], counters[GEMM_WORD_OPS]

    def test_full_runs_either_side_of_the_limit(self, clean_env, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "t.json"))
        from repro.parallel.tuner import configure_tuning

        configure_tuning()
        try:
            a = make_words(100, 200, np.uint8, seed=1)
            b = make_words(100, 200, np.uint8, seed=2)
            assert self._serial(a, b) == ("blis", 1, 2_000_000)
            a = make_words(3, 666_667, np.uint8, seed=3)
            b = make_words(1, 666_667, np.uint8, seed=4)
            assert self._serial(a, b) == ("blas", 1, 2_000_001)
        finally:
            configure_tuning()

    def test_gram_runs_either_side_of_the_limit(self, clean_env, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "t.json"))
        from repro.parallel.tuner import configure_tuning

        configure_tuning()
        try:
            # 125 x 125 x 128 words = 2,000,000: the blis triangle walk
            # counts only tiles on or above the diagonal (m_r=4 rows by
            # n_r=64 columns on the host blocking).
            a = make_words(125, 128, np.uint8, seed=5)
            below = sum(
                (min(r + 4, 125) - r) * (min(c + 64, 125) - c) * 128
                for r in range(0, 125, 4)
                for c in range(0, 125, 64)
                if r >= min(c + 64, 125)
            )
            assert below > 0
            assert self._serial(a, a) == ("blis", 1, 2_000_000 - below)
            # 126 x 126 x 126 words = 2,000,376: blas computes (and
            # counts) the full product.
            a = make_words(126, 126, np.uint8, seed=6)
            assert self._serial(a, a) == ("blas", 1, 126 ** 3)
        finally:
            configure_tuning()


class TestBlasChunking:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_exact_across_k_chunk_boundaries(self, op, monkeypatch):
        # Shrink the float32 exactness bound so a 10-word panel spans
        # several k-chunks (3 uint32 words = 96 bits < 100 per chunk).
        monkeypatch.setattr(blas_backend, "FLOAT32_EXACT_BITS", 100)
        a = make_words(9, 10, np.uint32, seed=61)
        b = make_words(7, 10, np.uint32, seed=62)
        panel = get_backend("blas").bit_gemm_panel
        assert np.array_equal(panel(a, b, op), bit_gemm_reference(a, b, op))
        assert np.array_equal(panel(a, a, op), bit_gemm_reference(a, a, op))


# -- engine integration ----------------------------------------------------------


class TestEngineBackends:
    def test_ctor_validates_backend(self):
        with pytest.raises(ConfigurationError):
            ParallelEngine(workers=1, backend="warp")

    def test_sharded_backend_bit_exact(self, clean_env):
        a = make_words(24, 8, np.uint32, seed=61)
        b = make_words(32, 8, np.uint32, seed=62)
        expected = bit_gemm_reference(a, b, ComparisonOp.AND)
        for backend in available_backends():
            name = backend.info.name
            engine = ParallelEngine(workers=2, backend=name)
            try:
                table, report = engine.run(
                    a, b, ComparisonOp.AND, force_parallel=True
                )
            finally:
                engine.shutdown()
            assert np.array_equal(table, expected), name
            assert report.backend == name
            assert report.used_parallel

    def test_serial_backend_bit_exact(self, clean_env):
        a = make_words(4, 3, np.uint32, seed=63)
        b = make_words(5, 3, np.uint32, seed=64)
        expected = bit_gemm_reference(a, b, ComparisonOp.ANDNOT)
        for backend in available_backends():
            name = backend.info.name
            engine = ParallelEngine(workers=1, backend=name)
            try:
                table, report = engine.run(a, b, ComparisonOp.ANDNOT)
            finally:
                engine.shutdown()
            assert np.array_equal(table, expected), name
            assert report.backend == name
            assert not report.used_parallel

    def test_serial_symmetric_stays_on_reference(self, clean_env):
        # Small Gram-mode serial runs keep the blis triangle walk so
        # the word-op counters never drift across backend legs.
        a = make_words(6, 3, np.uint32, seed=65)
        for backend in available_backends():
            engine = ParallelEngine(workers=1, backend=backend.info.name)
            try:
                table, report = engine.run(
                    a, a, ComparisonOp.AND, symmetric=True
                )
            finally:
                engine.shutdown()
            assert report.backend == "blis"
            assert np.array_equal(
                table, bit_gemm_reference(a, a, ComparisonOp.AND)
            )

    def test_env_backend_steers_auto(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        a = make_words(16, 4, np.uint32, seed=66)
        engine = ParallelEngine(workers=2)
        try:
            _, report = engine.run(
                a, a, ComparisonOp.XOR, force_parallel=True, symmetric=False
            )
        finally:
            engine.shutdown()
        assert report.backend == "numpy"


# -- tuner integration -----------------------------------------------------------


class TestTunerBackendKeying:
    def test_tuning_key_embeds_fingerprint(self):
        key = tuning_key(ComparisonOp.AND, 64, 64, 8, 64, 2)
        assert f"|be[{backend_fingerprint()}]" in key

    def test_record_roundtrips_backend(self):
        record = TuningRecord("numba", False, None, 0.25, 6)
        assert TuningRecord.from_json(record.to_json()) == record

    def test_legacy_record_defaults_to_reference(self):
        # A v1 strategy record carries no backend: it is malformed
        # under v2 and skipped, never guessed at.
        legacy = {
            "strategy": "gemm",
            "triangular": True,
            "crossover_ops": None,
            "best_seconds": 0.5,
            "candidates": 4,
        }
        with pytest.raises(ValueError, match="backend"):
            TuningRecord.from_json(legacy)

    def test_stale_backend_record_does_not_pin(self, tmp_path, monkeypatch,
                                               clean_env):
        # A tuning record naming a backend that is no longer available
        # must degrade to the size rule, not crash or pin.
        from repro.parallel import tuner as tuner_mod

        cache = TuningCache(tmp_path / "tuning.json")
        a = make_words(16, 4, np.uint32, seed=71)
        b = make_words(24, 4, np.uint32, seed=72)
        key = tuning_key(ComparisonOp.AND, 16, 24, 4, 32, 2)
        cache.store(key, TuningRecord("ghost", False, None, 0.001, 6))
        cache.save()
        monkeypatch.setattr(tuner_mod, "get_tuning_cache", lambda: cache)
        engine = ParallelEngine(workers=2)
        try:
            table, report = engine.run(
                a, b, ComparisonOp.AND, force_parallel=True
            )
        finally:
            engine.shutdown()
        assert report.backend == "blis"  # 16 x 24 x 4 words: the size rule
        assert np.array_equal(
            table, bit_gemm_reference(a, b, ComparisonOp.AND)
        )


# -- hypothesis property: all backends bit-exact ---------------------------------


class TestBackendProperties:
    def test_property_backends_match_reference(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            m=st.integers(min_value=0, max_value=9),
            n=st.integers(min_value=0, max_value=9),
            k=st.integers(min_value=0, max_value=11),
            dtype=st.sampled_from(WORD_DTYPES),
            op=st.sampled_from(ALL_OPS),
            seed=st.integers(min_value=0, max_value=2**16),
        )
        def check(m, n, k, dtype, op, seed):
            a = make_words(m, k, dtype, seed=seed)
            b = make_words(n, k, dtype, seed=seed + 1)
            expected = bit_gemm_reference(a, b, op)
            for backend in available_backends():
                got = backend.bit_gemm_panel(a, b, op)
                assert np.array_equal(got, expected), backend.info.name

        check()


# -- CLI flag --------------------------------------------------------------------


class TestCliBackendFlag:
    def test_ld_command_accepts_backend(self, tmp_path, capsys, clean_env):
        from repro.cli import main
        from repro.snp.dataset import SNPDataset
        from repro.snp.io import write_snptxt

        rng = np.random.default_rng(81)
        dataset = SNPDataset(
            matrix=rng.integers(0, 2, size=(12, 32), dtype=np.uint8)
        )
        path = tmp_path / "pop.snptxt"
        write_snptxt(path, dataset)
        for backend in ("numpy", "blas", "blis"):
            assert main(
                ["ld", "--input", str(path), "--backend", backend]
            ) == 0
        capsys.readouterr()

    def test_backend_choices_come_from_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        # Unknown names are rejected at argparse level.
        with pytest.raises(SystemExit):
            parser.parse_args(["ld", "--input", "x", "--backend", "warp"])
        for backend in ("blas", "blis"):
            args = parser.parse_args(["ld", "--input", "x", "--backend", backend])
            assert args.backend == backend

    def test_cli_rejects_strategy_flag(self, capsys):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["ld", "--input", "x", "--strategy", "gemm"])
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, sub in commands.choices.items():
            flags = {f for action in sub._actions for f in action.option_strings}
            assert "--strategy" not in flags, name
            assert "--backend" not in flags or "blis" in next(
                a.choices for a in sub._actions if "--backend" in a.option_strings
            ), name


def test_module_exports_are_importable():
    import repro.kernels as kernels

    for name in kernels.__all__:
        assert hasattr(kernels, name), name
    assert isinstance(get_backend("numba"), NumbaBackend)
    assert issubclass(NumbaBackend, KernelBackend)
