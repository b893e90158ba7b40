"""Failure-injection and stress tests: the unhappy paths.

The device stack must fail loudly and leak nothing when resources run
out mid-pipeline, when callers misuse handles, or when problem shapes
hit degenerate corners.
"""

import dataclasses

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import PackedOperand, pack_operand
from repro.core.pipeline import plan_tiles, run_pipeline
from repro.errors import AllocationError, KernelLaunchError
from repro.gpu.arch import GTX_980
from repro.gpu.device import Device
from repro.gpu.kernel import SnpKernel
from repro.snp.stats import ld_counts_naive
from repro.util.units import kib, mib


def shrunk_arch(**overrides):
    defaults = dict(max_alloc_bytes=kib(64), global_memory_bytes=mib(1))
    defaults.update(overrides)
    return dataclasses.replace(GTX_980, **defaults)


def ld_kernel(arch):
    return SnpKernel.compile(
        arch, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=384,
        grid_rows=1, grid_cols=16,
    )


class TestAllocationExhaustion:
    def test_pipeline_rejects_oversized_query_cleanly(self):
        arch = shrunk_arch()
        context = Device(arch).create_context()
        # Query operand alone exceeds the budget.
        a = pack_operand(np.zeros((4096, 4096), dtype=np.uint8), row_multiple=4)
        b = pack_operand(np.zeros((64, 4096), dtype=np.uint8), row_multiple=4)
        queue = context.create_queue()
        before = context.memory.allocated_bytes
        with pytest.raises(AllocationError):
            plan_tiles(ld_kernel(arch), a.padded_rows, b.padded_rows, a.k_words)
        with pytest.raises(AllocationError):
            run_pipeline(queue, ld_kernel(arch), a.padded_rows, b.padded_rows, a.k_words)
        assert context.memory.allocated_bytes == before  # nothing leaked

    def test_context_memory_pressure_from_prior_allocations(self):
        arch = shrunk_arch(global_mem=None) if False else shrunk_arch(
            global_memory_bytes=mib(1)
        )
        context = Device(arch).create_context()
        # Occupy most of global memory with an unrelated allocation.
        hog = context.create_buffer(kib(60))
        rng = np.random.default_rng(0)
        a = pack_operand((rng.random((16, 640)) < 0.5).astype(np.uint8), row_multiple=4)
        b = pack_operand((rng.random((256, 640)) < 0.5).astype(np.uint8), row_multiple=4)
        queue = context.create_queue()
        live_before = context.memory.n_live
        # The pipeline still fits (tiles shrink).
        run_pipeline(queue, ld_kernel(arch), a.padded_rows, b.padded_rows, a.k_words)
        assert context.memory.n_live == live_before  # pipeline buffers freed
        hog.release()

    def test_total_memory_exhaustion_raises(self):
        arch = shrunk_arch(global_memory_bytes=kib(200), max_alloc_bytes=kib(64))
        context = Device(arch).create_context()
        buffers = []
        with pytest.raises(AllocationError):
            for _ in range(10):
                buffers.append(context.create_buffer(kib(48)))
        for buf in buffers:
            buf.release()
        assert context.memory.allocated_bytes == 0


class TestHandleMisuse:
    def test_cross_dtype_operands_rejected_at_kernel(self):
        fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
        a = fw.pack(np.eye(4, 64, dtype=np.uint8))
        b = PackedOperand(
            words=a.words.astype(np.uint64), n_rows=a.n_rows, n_bits=a.n_bits
        )
        with pytest.raises(KernelLaunchError, match="uint32"):
            fw.run_packed(a, b)


class TestDegenerateShapes:
    def test_single_row_single_site(self):
        fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
        counts, report = fw.run(np.array([[1]], dtype=np.uint8))
        assert counts.shape == (1, 1)
        assert counts[0, 0] == 1
        assert report.end_to_end_s > 0

    def test_all_zero_matrix(self):
        fw = SNPComparisonFramework(GTX_980, Algorithm.FASTID_IDENTITY)
        zeros = np.zeros((5, 100), dtype=np.uint8)
        dist, _ = fw.run(zeros, zeros)
        assert (dist == 0).all()

    def test_all_ones_matrix(self):
        fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
        ones = np.ones((6, 97), dtype=np.uint8)
        counts, _ = fw.run(ones)
        assert (counts == 97).all()

    def test_site_count_not_word_aligned(self):
        rng = np.random.default_rng(1)
        for k_bits in (1, 31, 33, 63, 65, 95):
            bits = (rng.random((7, k_bits)) < 0.5).astype(np.uint8)
            fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
            counts, _ = fw.run(bits)
            assert (counts == ld_counts_naive(bits)).all(), k_bits

    def test_highly_skewed_query(self):
        rng = np.random.default_rng(2)
        one_query = (rng.random((1, 256)) < 0.5).astype(np.uint8)
        db = (rng.random((3000, 256)) < 0.5).astype(np.uint8)
        fw = SNPComparisonFramework(GTX_980, Algorithm.FASTID_IDENTITY)
        dist, _ = fw.run(one_query, db)
        assert dist.shape == (1, 3000)

    def test_many_tiles_stress(self):
        # Force dozens of tiles through a tiny device and verify the
        # result plus buffer hygiene.
        arch = shrunk_arch(max_alloc_bytes=8 * 1024, global_memory_bytes=mib(2))
        rng = np.random.default_rng(3)
        a_bits = (rng.random((16, 320)) < 0.4).astype(np.uint8)
        b_bits = (rng.random((2000, 320)) < 0.4).astype(np.uint8)
        fw = SNPComparisonFramework(arch, Algorithm.LD)
        table, report = fw.run(a_bits, b_bits)
        assert report.n_tiles >= 10
        assert (table == ld_counts_naive(a_bits, b_bits)).all()
        assert fw.last_queue.context.memory.n_live == 0
