"""Tests for the kernel ABI (:mod:`repro.kernels`): backend conformance,
registry resolution, the one shape rule, engine integration, and the CLI
flag."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.core.ld import linkage_disequilibrium
from repro.errors import ConfigurationError, PackingError
from repro.kernels import (
    NUMPY_ROW_LIMIT,
    REPRO_BACKEND_ENV,
    BackendInfo,
    CNativeBackend,
    KernelBackend,
    available_backends,
    backend_available,
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
from repro.kernels import blas_backend, cnative_backend
from repro.kernels.numpy_backend import B_ROW_BLOCK, ROW_BLOCK, reference_panel
from repro.kernels.cnative_backend import (
    COMPILE_TRIGGER_OPS,
    HARDWARE_BODIES,
    KERNEL_CACHE_ENV,
)
from repro.observability.counters import GEMM_CALLS, GEMM_WORD_OPS
from repro.observability.regress import DETERMINISTIC_COUNTERS
from repro.observability.tracer import Tracer, set_tracer
from repro.parallel.engine import ParallelEngine, bit_gemm_parallel
from repro.snp.stats import ld_counts_naive
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
        for expected in ("numpy", "blas", "cnative"):
            assert expected in names
        assert "sim" not in names
        assert "blis" not in names

    def test_info_descriptors_are_wellformed(self):
        for backend in registered_backends():
            info = backend.info
            assert isinstance(info, BackendInfo)
            assert info.name and info.kind and info.version
            assert info.kind in ("reference", "blas", "native")
            if not info.available:
                assert info.unavailable_reason

    def test_reference_backend_always_available(self):
        info = get_backend("numpy").info
        assert info.available
        assert not info.compiled
        assert get_backend("blas").info.available

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

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "threads"])
    def test_every_backend_and_plan_shape(self, workers, clean_env):
        # Every available backend x {full, triangular} plan is bit-exact
        # with equal deterministic counters, serially and on threads.
        a = make_words(96, 6, np.uint32, seed=91)
        b = make_words(80, 6, np.uint32, seed=92)
        cases = {
            "full": (a, b, ComparisonOp.XOR, False),
            "triangular": (a, a, ComparisonOp.AND, True),
        }
        seen: dict[str, set] = {shape: set() for shape in cases}
        for backend in available_backends():
            name = backend.name
            engine = ParallelEngine(workers=workers, backend=name)
            try:
                for shape, (x, y, op, symmetric) in cases.items():
                    (table, report), counters = traced(
                        lambda: engine.run(x, y, op, force_parallel=workers > 1)
                    )
                    assert np.array_equal(
                        table, bit_gemm_reference(x, y, op)
                    ), (name, shape)
                    assert report.used_parallel == (workers > 1)
                    assert report.symmetric == symmetric
                    assert report.backend == name
                    if workers > 1:
                        assert (report.n_mirrored > 0) == symmetric
                    seen[shape].add(tuple(sorted(deterministic(counters).items())))
            finally:
                engine.shutdown()
        # Equal deterministic counters whichever backend ran.
        assert all(len(counters) == 1 for counters in seen.values()), seen


# -- the reference panel's two loop orders ---------------------------------------


def unpackbits_oracle(a, b, op):
    """Per-cell popcount over ``np.unpackbits``: no broadcast, no blocking."""
    combine = get_microkernel(op).combine
    c = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            words = np.ascontiguousarray(combine(a[i], b[j]))
            c[i, j] = int(np.unpackbits(words.view(np.uint8)).sum())
    return c


class TestReferenceLoops:
    """A of :data:`ROW_BLOCK` rows or more walks A's row blocks; a
    shorter A is broadcast against blocks of B's rows and written
    transposed."""

    @pytest.mark.parametrize(
        "op", [ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.ANDNOT]
    )
    def test_both_loop_orders_match_unpackbits(self, op):
        # Rows of A either side of the row block (1, 3, 63 short; 64,
        # 65, 130 tall), B from empty to past two of the short loop's
        # blocks of B rows, and k from empty through ragged uint16
        # tails.
        kernel = get_microkernel(op)
        for seed, (m, n, k) in enumerate(
            [
                (0, 5, 3), (1, 0, 3), (3, 4, 0), (0, 0, 0),
                (1, 9, 1), (3, 2 * B_ROW_BLOCK + 7, 5), (63, 150, 3),
                (ROW_BLOCK, 7, 2), (ROW_BLOCK + 1, 3, 7), (130, 70, 1),
            ]
        ):
            a = make_words(m, k, np.uint16, seed=seed)
            b = make_words(n, k, np.uint16, seed=seed + 50)
            got = reference_panel(a, b, kernel)
            assert got.shape == (m, n) and got.dtype == np.int64
            assert np.array_equal(got, unpackbits_oracle(a, b, op)), (m, n, k)

    def test_short_a_temporary_is_bounded(self):
        # 4 queries against 65,536 rows of 32 uint64 words: broadcast
        # whole, the (4, 65,536, 32) temporary and its int64 popcount
        # peaked at 138 MiB; the short loop keeps the peak near the
        # 2 MiB table.
        a = make_words(4, 32, np.uint64, seed=1)
        b = make_words(65_536, 32, np.uint64, seed=2)
        kernel = get_microkernel(ComparisonOp.XOR)
        tracemalloc.start()
        try:
            c = reference_panel(a, b, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert np.array_equal(
            c[:, :300], unpackbits_oracle(a, b[:300], ComparisonOp.XOR)
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
        # Unknown names fail, the deleted blis walk among them.
        for name in ("bogus", "blis"):
            monkeypatch.setenv(REPRO_BACKEND_ENV, name)
            with pytest.raises(ConfigurationError, match=name):
                env_backend_name()
            with pytest.raises(ConfigurationError, match=name):
                pick_backend(4, 4_096, 16)


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


# -- the one-shard engine driver and the shape rule ------------------------------


class TestBitGemmBackendDriver:
    def test_matches_reference_and_counts(self, clean_env):
        a = make_words(8, 4, np.uint32, seed=41)
        b = make_words(6, 4, np.uint32, seed=42)
        expected = bit_gemm_reference(a, b, ComparisonOp.XOR)
        got, snapshot = traced(
            lambda: bit_gemm_parallel(a, b, ComparisonOp.XOR, workers=1)
        )
        assert np.array_equal(got, expected)
        assert snapshot[GEMM_CALLS] == 1
        assert snapshot[GEMM_WORD_OPS] == 8 * 6 * 4

    def test_word_op_accounting_is_backend_invariant(self, clean_env,
                                                     pin_native):
        # One counter contract: a logical GEMM counts one call and
        # m * n * k word-ops whatever backend, worker count or plan shape
        # (full, or triangular for the 96-row Gram operand on two
        # threads) ran it, before and after cnative loads.
        a = make_words(5, 3, np.uint64, seed=51)
        b = make_words(7, 3, np.uint64, seed=52)
        g = make_words(96, 3, np.uint64, seed=53)
        # The unloaded half runs everywhere, so the no-compiler leg
        # checks the contract too instead of skipping the test.
        states = (False, True) if backend_available("cnative") else (False,)
        for loaded in states:
            pin_native(loaded)
            names = ["auto", *(be.info.name for be in available_backends())]
            for name in names:
                serial = ParallelEngine(workers=1, backend=name)
                threads = ParallelEngine(workers=2, backend=name)
                try:
                    for x, y in ((a, b), (g, g)):
                        runs = {
                            "serial": lambda: serial.run(x, y)[0],
                            "threads": lambda: threads.run(
                                x, y, force_parallel=True
                            )[0],
                        }
                        ops = x.shape[0] * y.shape[0] * x.shape[1]
                        for how, run in runs.items():
                            got, snap = traced(run)
                            assert np.array_equal(
                                got, bit_gemm_reference(x, y)
                            ), (loaded, name, how)
                            assert (
                                snap.get(GEMM_CALLS), snap.get(GEMM_WORD_OPS)
                            ) == (1, ops), (loaded, name, how)
                finally:
                    threads.shutdown()

    def test_unknown_backend_raises(self):
        a = make_words(2, 2, np.uint32)
        with pytest.raises(ConfigurationError):
            bit_gemm_parallel(a, a, workers=1, backend="warp")


class TestSizeRule:
    def test_rule_at_the_limit(self, clean_env, pin_native):
        assert NUMPY_ROW_LIMIT == 16
        # Before cnative loads, "auto" runs numpy when the shorter
        # operand has at most 16 rows, whichever side it is, and blas
        # above; once loaded, cnative takes both sides.
        for loaded, short, large in ((False, "numpy", "blas"),
                                     (True, "cnative", "cnative")):
            pin_native(loaded)
            assert pick_backend(16, 4_096, 64) == short
            assert pick_backend(4_096, 16, 64) == short
            assert pick_backend(17, 4_096, 64) == large
            assert pick_backend(4_096, 17, 64) == large
            # A named backend runs as named on either side.
            assert pick_backend(16, 16, 1, "blas") == "blas"
            assert pick_backend(17, 17, 1, "blas") == "blas"

    def test_picks_the_race_winners(self, clean_env, pin_native, tmp_path,
                                    monkeypatch):
        # On a cold cache with a compiler that always fails: numpy for
        # the served segment and the mixture chunk, blas for 64^3 and
        # the ld-gram Gram, the shapes docs/KERNELS.md races; cnative
        # for all four once it has loaded.
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "cold"))
        original = get_backend("cnative")
        backend = register_backend(CNativeBackend(), replace=True)
        shapes = {
            (4, 4_096, 16): "numpy",
            (65_536, 16, 32): "numpy",
            (64, 64, 64): "blas",
            (4_096, 4_096, 64): "blas",
        }
        try:
            for shape, expected in shapes.items():
                assert pick_backend(*shape) == expected, shape
            # The Gram crossed the compile trigger; the build fails.
            backend._builder.join(timeout=60)
            for shape, expected in shapes.items():
                assert pick_backend(*shape) == expected, shape
            assert not backend_available("cnative")
        finally:
            register_backend(original, replace=True)
        pin_native(True)
        for shape in shapes:
            assert pick_backend(*shape) == "cnative", shape

    def test_env_names_the_backend(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        assert pick_backend(4_096, 4_096, 64) == "numpy"
        assert pick_backend(4, 4_096, 16) == "numpy"

    @staticmethod
    def _serial(a, b, op=ComparisonOp.AND):
        engine = ParallelEngine(workers=1)
        (table, report), counters = traced(lambda: engine.run(a, b, op))
        assert np.array_equal(table, bit_gemm_reference(a, b, op))
        return report.backend, counters[GEMM_CALLS], counters[GEMM_WORD_OPS]

    def test_full_runs_either_side_of_the_limit(self, clean_env, pin_native):
        # The shorter operand decides, on either side; the counters are
        # the same before and after cnative loads.
        for loaded, short, large in ((False, "numpy", "blas"),
                                     (True, "cnative", "cnative")):
            pin_native(loaded)
            a = make_words(300, 20, np.uint8, seed=1)
            b = make_words(16, 20, np.uint8, seed=2)
            assert self._serial(a, b) == (short, 1, 300 * 16 * 20)
            assert self._serial(b, a) == (short, 1, 300 * 16 * 20)
            b = make_words(17, 20, np.uint8, seed=3)
            assert self._serial(a, b) == (large, 1, 300 * 17 * 20)
            assert self._serial(b, a) == (large, 1, 300 * 17 * 20)

    def test_gram_runs_either_side_of_the_limit(self, clean_env, pin_native):
        # A Gram run takes the rule a full run takes, and counts the
        # full product.
        for loaded, short, large in ((False, "numpy", "blas"),
                                     (True, "cnative", "cnative")):
            pin_native(loaded)
            a = make_words(16, 40, np.uint8, seed=5)
            assert self._serial(a, a) == (short, 1, 16 * 16 * 40)
            a = make_words(17, 40, np.uint8, seed=6)
            assert self._serial(a, a) == (large, 1, 17 * 17 * 40)


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

    @pytest.mark.parametrize("name", backend_names())
    def test_named_backend_runs_as_named(self, name, clean_env):
        # A small Gram run computes on the backend it names, through the
        # framework and the serial engine alike.
        if not backend_available(name):
            pytest.skip(f"backend {name!r} is unavailable on this host")
        cohort = np.random.default_rng(67).integers(
            0, 2, size=(64, 128), dtype=np.uint8
        )
        result = linkage_disequilibrium(cohort, backend=name)
        assert result.report.backend == name
        assert np.array_equal(result.counts, ld_counts_naive(cohort.T))
        a = make_words(6, 3, np.uint32, seed=65)
        table, report = ParallelEngine(workers=1, backend=name).run(
            a, a, ComparisonOp.AND
        )
        assert report.backend == name
        assert np.array_equal(
            table, bit_gemm_reference(a, a, ComparisonOp.AND)
        )

    def test_env_backend_steers_auto(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        a = make_words(16, 4, np.uint32, seed=66)
        engine = ParallelEngine(workers=2)
        try:
            _, report = engine.run(
                a, a.copy(), ComparisonOp.XOR, force_parallel=True
            )
        finally:
            engine.shutdown()
        assert report.backend == "numpy"


# -- tuning files from earlier versions ------------------------------------------


class TestTunerBackendKeying:
    """A backend named in an earlier version's ``host-tuning.json`` pins
    nothing: the file is not read."""

    def test_stale_backend_record_does_not_pin(self, tmp_path, monkeypatch,
                                               clean_env, pin_native):
        # A v2 record in the cache root names a backend that does not
        # exist for this 16 x 24 x 4-word shape: sharded "auto" follows
        # the shape rule in both cnative states and leaves the root as
        # it was.
        root = tmp_path / "xdg" / "repro"
        root.mkdir(parents=True)
        path = root / "host-tuning.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-host-tuning/2",
                    "records": {
                        "and|m16-n32-k4|w2|b32|be[ghost@1]": {
                            "backend": "ghost", "triangular": False,
                            "crossover_ops": None, "best_seconds": 0.001,
                            "candidates": 6,
                        }
                    },
                }
            )
        )
        before = path.read_bytes()
        a = make_words(16, 4, np.uint32, seed=71)
        b = make_words(24, 4, np.uint32, seed=72)
        engine = ParallelEngine(workers=2)
        try:
            for loaded, expected in ((False, "numpy"), (True, "cnative")):
                pin_native(loaded)
                with monkeypatch.context() as env:
                    env.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
                    table, report = engine.run(
                        a, b, ComparisonOp.AND, force_parallel=True
                    )
                assert report.backend == expected
                assert report.used_parallel
                assert not report.symmetric
                assert np.array_equal(
                    table, bit_gemm_reference(a, b, ComparisonOp.AND)
                )
        finally:
            engine.shutdown()
        assert [p.name for p in root.iterdir()] == ["host-tuning.json"]
        assert path.read_bytes() == before


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


# -- the native kernel: bodies, the deferred compile, the cache -----------------


def _real_compiler():
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    pytest.skip("no C compiler on PATH")


#: A GEMM shape of exactly :data:`COMPILE_TRIGGER_OPS` word-ops whose
#: shorter operand takes ``blas`` before the library loads.
TRIGGER_SHAPE = (128, 128, COMPILE_TRIGGER_OPS // 128**2)


def _fake_cc(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return path


@pytest.fixture
def native():
    backend = get_backend("cnative")
    if not backend.info.available:
        pytest.skip(f"cnative unavailable: {backend.info.unavailable_reason}")
    return backend


def _panel(m, k, dtype, fill, seed):
    if fill == "zeros":
        return np.zeros((m, k), dtype=dtype)
    if fill == "ones":
        return np.full((m, k), np.iinfo(dtype).max, dtype=dtype)
    return make_words(m, k, dtype, seed=seed)


class TestNativeBodies:
    def test_the_most_capable_body_runs(self, native):
        bodies = native.bodies()
        assert bodies[0] == "portable"
        assert native.body == bodies[-1]
        assert native.info.version.endswith(f"/{native.body}")

    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_every_body_bit_exact(self, native, op, dtype):
        # Empty extents, ragged tail words (k not a multiple of the
        # uint64 canonical width) and all-zero / all-one panels.
        cases = [
            ((0, 4, 3), "random", "random"),
            ((4, 0, 3), "random", "random"),
            ((4, 4, 0), "random", "random"),
            ((7, 9, 5), "random", "random"),
            ((6, 4, 1), "random", "random"),
            ((5, 3, 11), "random", "random"),
            ((3, 17, 9), "zeros", "ones"),
            ((3, 17, 9), "ones", "zeros"),
            ((4, 4, 6), "ones", "ones"),
        ]
        for seed, ((m, n, k), fill_a, fill_b) in enumerate(cases):
            a = _panel(m, k, dtype, fill_a, seed)
            b = _panel(n, k, dtype, fill_b, seed + 100)
            expected = bit_gemm_reference(a, b, op)
            for body in native.bodies():
                got = native.body_panel(body, a, b, op)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected), (body, m, n, k)

    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_every_body_bit_exact_across_tile_edges(self, native, op, dtype):
        # The VPOPCNTDQ body packs one operand into 8-row panels and
        # streams the other 4 rows at a time against panel pairs: A
        # when it has fewer rows and fits one panel (C is then written
        # transposed), else B.  These extents straddle the row tile
        # (4), the lane count (8) and the panel pair (16) on both
        # sides, so both orientations and every edge tile run; k (in
        # uint64 words after canonicalisation) runs from 0 past 3 zmm
        # vectors of 8, with ragged narrow-dtype tails.
        per = 8 // np.dtype(dtype).itemsize
        ks = [0, 1, 3 * per - 1, 8 * per + 1, 25 * per - 1]
        extents = [
            (1, 7), (3, 9), (5, 16), (8, 13),  # A packed
            (9, 17), (16, 33), (33, 16), (17, 5), (8, 8), (20, 17), (40, 24),
        ]
        for seed, ((m, n), k) in enumerate(
            (shape, k) for shape in extents for k in ks
        ):
            a = _panel(m, k, dtype, "random", seed)
            b = _panel(n, k, dtype, "random", seed + 500)
            expected = bit_gemm_reference(a, b, op)
            for body in native.bodies():
                assert np.array_equal(
                    native.body_panel(body, a, b, op), expected
                ), (body, m, n, k)

    @pytest.mark.parametrize("op", [ComparisonOp.AND, ComparisonOp.ANDNOT])
    def test_every_body_bit_exact_across_panel_blocks(self, native, op):
        # 64 uint64 words make a 4 KiB panel, so 530 packed rows span
        # two of the tiled body's 256 KiB panel blocks, with either
        # operand the larger; the portable body's plain loop is the
        # oracle.
        a = make_words(530, 64, np.uint64, seed=1)
        b = make_words(531, 64, np.uint64, seed=2)
        for x, y in ((a, b), (b, a)):
            expected = native.body_panel("portable", x, y, op)
            assert np.array_equal(expected[:3, :40], bit_gemm_reference(x[:3], y[:40], op))
            for body in native.bodies():
                assert np.array_equal(native.body_panel(body, x, y, op), expected), body

    def test_concurrent_calls_keep_their_own_panels(self, native):
        # The engine calls panels from pool threads at once; each call
        # packs into its own scratch.  A 512-row Gram and a 4 x 4,096
        # panel (A packed, C transposed) run together, repeatedly.
        body = native.bodies()[-1]
        gram = make_words(512, 32, np.uint32, seed=3)
        queries = make_words(4, 32, np.uint32, seed=4)
        rows = make_words(4096, 32, np.uint32, seed=5)
        jobs = [
            (gram, gram, ComparisonOp.AND),
            (queries, rows, ComparisonOp.XOR),
        ]
        expected = [bit_gemm_reference(a, b, op) for a, b, op in jobs]
        barrier = threading.Barrier(len(jobs))
        results: list[list[np.ndarray]] = [[] for _ in jobs]

        def run(index):
            a, b, op = jobs[index]
            for _ in range(5):
                barrier.wait(timeout=30)
                results[index].append(native.body_panel(body, a, b, op))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        for got, want in zip(results, expected):
            assert len(got) == 5
            assert all(np.array_equal(g, want) for g in got)

    def test_property_every_body_matches_reference(self, native):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        fills = st.sampled_from(["random", "zeros", "ones"])

        @settings(max_examples=40, deadline=None)
        @given(
            m=st.integers(min_value=0, max_value=9),
            n=st.integers(min_value=0, max_value=9),
            k=st.integers(min_value=0, max_value=19),
            dtype=st.sampled_from(WORD_DTYPES),
            op=st.sampled_from(ALL_OPS),
            fill_a=fills,
            fill_b=fills,
            seed=st.integers(min_value=0, max_value=2**16),
        )
        def check(m, n, k, dtype, op, fill_a, fill_b, seed):
            a = _panel(m, k, dtype, fill_a, seed)
            b = _panel(n, k, dtype, fill_b, seed + 1)
            expected = bit_gemm_reference(a, b, op)
            for body in native.bodies():
                assert np.array_equal(
                    native.body_panel(body, a, b, op), expected
                ), body

        check()

    def test_unknown_body_raises(self, native):
        a = make_words(2, 2, np.uint64)
        with pytest.raises(ConfigurationError, match="does not run"):
            native.body_panel("sse9", a, a)


class TestNativeDispatch:
    @pytest.fixture
    def fresh(self, tmp_path, monkeypatch, clean_env):
        """A fresh cnative over an empty cache whose compiler logs each run."""
        log = tmp_path / "cc.log"
        fake = _fake_cc(
            tmp_path / "cc",
            f'echo run >> "{log}"\nexec "{_real_compiler()}" "$@"\n',
        )
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kernels"))
        # Nothing on the "auto" path may probe the descriptor: it
        # compiles on the caller's thread.
        monkeypatch.setattr(
            CNativeBackend, "info",
            property(lambda self: pytest.fail("auto probed cnative.info")),
        )
        original = get_backend("cnative")

        def runs():
            return len(log.read_text().splitlines()) if log.exists() else 0

        def register():
            backend = register_backend(CNativeBackend(), replace=True)
            assert isinstance(backend, CNativeBackend)
            return backend

        yield register, runs
        register_backend(original, replace=True)

    def test_compile_starts_once_at_the_trigger(self, fresh):
        register, runs = fresh
        backend = register()
        # Below the trigger (2**27 - 1 = 73 * 7 * 262,657 word-ops):
        # today's choice, and no compiler started.
        assert pick_backend(73, 262_657, 7) == "blas"
        assert backend._builder is None
        assert runs() == 0
        # Crossing it starts exactly one background build.
        assert pick_backend(1, 1, 1) == "numpy"
        builder = backend._builder
        assert builder is not None
        builder.join(timeout=120)
        assert not builder.is_alive()
        assert runs() == 1
        native = "cnative" if backend.body in HARDWARE_BODIES else "numpy"
        for _ in range(3):
            assert pick_backend(1, 1, 1) == native
            assert pick_backend(*TRIGGER_SHAPE) == (
                "cnative" if native == "cnative" else "blas"
            )
        assert backend._builder is builder
        assert runs() == 1

    def test_concurrent_dispatches_count_every_op_and_build_once(self, fresh):
        # 8 threads x 8 dispatches of trigger/64 word-ops sum to exactly
        # the trigger: a lost update would leave it uncrossed.
        register, runs = fresh
        backend = register()
        barrier = threading.Barrier(8)

        def dispatch():
            barrier.wait(timeout=30)
            for _ in range(8):
                pick_backend(128, 128, 128)  # 2**21 = trigger / 64

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=dispatch) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert backend._fallback_ops == COMPILE_TRIGGER_OPS
        builder = backend._builder
        assert builder is not None
        builder.join(timeout=120)
        assert not builder.is_alive()
        assert runs() == 1

    def test_warm_cache_loads_at_the_first_dispatch(self, fresh):
        register, runs = fresh
        register().bodies()  # a synchronous build fills the cache
        assert runs() == 1
        backend = register()
        assert backend.body is None  # nothing loads before a dispatch
        expected = pick_backend(1, 1, 1)
        assert backend.body is not None
        assert expected == (
            "cnative" if backend.body in HARDWARE_BODIES else "numpy"
        )
        assert backend._builder is None
        assert runs() == 1

    def test_failed_build_latches_fallback(self, tmp_path, monkeypatch, clean_env):
        monkeypatch.setenv("CC", str(_fake_cc(tmp_path / "cc", "exit 1\n")))
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kernels"))
        original = get_backend("cnative")
        backend = register_backend(CNativeBackend(), replace=True)
        try:
            assert pick_backend(*TRIGGER_SHAPE) == "blas"
            backend._builder.join(timeout=60)
            assert pick_backend(*TRIGGER_SHAPE) == "blas"
            assert not backend.info.available
            assert "failed" in backend.info.unavailable_reason
            assert list((tmp_path / "kernels").iterdir()) == []
        finally:
            register_backend(original, replace=True)


class TestNativeCache:
    def test_key_includes_the_machine(self, monkeypatch):
        path = cnative_backend._library_path("/usr/bin/cc")
        monkeypatch.setattr(
            cnative_backend.platform, "machine", lambda: "other-arch"
        )
        assert cnative_backend._library_path("/usr/bin/cc") != path

    def test_exit_mid_compile_leaves_nothing(self, tmp_path):
        # The compiler sleeps far longer than the test; the process
        # exits while it runs.  Exit must not wait for it, and neither a
        # library nor the build's temp directory may remain.
        pidfile = tmp_path / "cc.pid"
        fake = _fake_cc(tmp_path / "cc", f'echo $$ > "{pidfile}"\nsleep 60\n')
        kernels = tmp_path / "kernels"
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.kernels import pick_backend\n"
            "from repro.kernels.cnative_backend import COMPILE_TRIGGER_OPS\n"
            "assert pick_backend(128, 128, COMPILE_TRIGGER_OPS // 128**2) == 'blas'\n"
            "pid = Path(sys.argv[1])\n"
            "deadline = time.monotonic() + 30\n"
            "while not (pid.exists() and pid.read_text().strip()):\n"
            "    assert time.monotonic() < deadline, 'compiler never started'\n"
            "    time.sleep(0.01)\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            CC=str(fake),
            REPRO_KERNEL_CACHE=str(kernels),
            PYTHONPATH=str(Path(cnative_backend.__file__).resolve().parents[2]),
        )
        start = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", script, str(pidfile)],
            env=env, check=True, timeout=50,
        )
        assert time.monotonic() - start < 40  # did not wait out the sleep
        assert list(kernels.iterdir()) == []
        pid = int(pidfile.read_text())
        stat = Path(f"/proc/{pid}/stat")
        deadline = time.monotonic() + 10
        while stat.exists() and stat.read_text().split()[2] != "Z":
            assert time.monotonic() < deadline, "compiler outlived the exit"
            time.sleep(0.05)


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
        for backend in ("numpy", "blas"):
            assert main(
                ["ld", "--input", str(path), "--backend", backend]
            ) == 0
        capsys.readouterr()

    def test_backend_choices_come_from_registry(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        # Unknown names, the deleted blis walk among them, exit 2 at
        # argparse level.
        for name in ("warp", "blis"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["ld", "--input", "x", "--backend", name])
            assert exc.value.code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err
        for backend in ("numpy", "blas"):
            args = parser.parse_args(["ld", "--input", "x", "--backend", backend])
            assert args.backend == backend

    def test_cli_rejects_strategy_flag(self, capsys):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        for flag, value in (("--strategy", "gemm"), ("--executor", "thread")):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["ld", "--input", "x", flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, sub in commands.choices.items():
            flags = {f for action in sub._actions for f in action.option_strings}
            assert "--strategy" not in flags, name
            assert "--executor" not in flags, name
            assert "--backend" not in flags or "numpy" in next(
                a.choices for a in sub._actions if "--backend" in a.option_strings
            ), name


def test_module_exports_are_importable():
    import repro.kernels as kernels

    for name in kernels.__all__:
        assert hasattr(kernels, name), name
    assert isinstance(get_backend("cnative"), CNativeBackend)
    assert issubclass(CNativeBackend, KernelBackend)
