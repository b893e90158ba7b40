"""Tests for repro.core.pipeline: tiling and double buffering."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import pack_operand
from repro.core.pipeline import plan_tiles, run_pipeline
from repro.errors import AllocationError, FaultInjectedError
from repro.gpu.arch import GTX_980, GPUArchitecture, MemorySystemModel
from repro.gpu.device import Device
from repro.gpu.kernel import SnpKernel
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import resilient
from repro.snp.stats import ld_counts_naive
from repro.util.units import kib, mib


def tiny_memory_arch(max_alloc=mib(1), global_mem=mib(4)) -> GPUArchitecture:
    """A GTX-980-like device with toy memory limits to force tiling."""
    return GPUArchitecture(
        name="Tiny 980",
        vendor="NVIDIA",
        microarchitecture="Maxwell",
        frequency_ghz=1.367,
        n_t=32,
        n_grp_max=32,
        n_c=16,
        n_cl=4,
        alu_units=32,
        popc_units=8,
        l_fn=6,
        global_memory_bytes=global_mem,
        max_alloc_bytes=max_alloc,
        shared_memory_bytes=kib(48),
        shared_memory_banks=32,
        shared_memory_reserved_bytes=16,
        registers_per_core=64 * 1024,
        max_registers_per_thread=255,
        memory=MemorySystemModel(global_bandwidth_gbs=185.0),
    )


def make_kernel(arch, n_r=384, grid=(1, 16)):
    return SnpKernel.compile(
        arch, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=n_r,
        grid_rows=grid[0], grid_cols=grid[1],
    )


def extents(a, b):
    """Padded ``(m, n, k)`` launch extents of two packed operands."""
    return a.padded_rows, b.padded_rows, a.k_words


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(0)
    a_bits = (rng.random((16, 320)) < 0.4).astype(np.uint8)
    b_bits = (rng.random((700, 320)) < 0.4).astype(np.uint8)
    a = pack_operand(a_bits, row_multiple=4)
    b = pack_operand(b_bits, row_multiple=4)
    return a_bits, b_bits, a, b


class TestPlanTiles:
    def test_single_tile_when_fits(self, small_problem):
        _, _, a, b = small_problem
        plan = plan_tiles(make_kernel(GTX_980), *extents(a, b))
        assert plan.n_tiles == 1
        assert plan.ranges == ((0, b.padded_rows),)

    def test_multiple_tiles_on_tiny_device(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)
        plan = plan_tiles(make_kernel(arch), *extents(a, b))
        assert plan.n_tiles > 1
        # Tiles partition the padded database exactly.
        covered = [i for s, e in plan.ranges for i in range(s, e)]
        assert covered == list(range(b.padded_rows))

    def test_tile_respects_max_alloc(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)
        plan = plan_tiles(make_kernel(arch), *extents(a, b))
        word_bytes = arch.word_bytes
        assert plan.tile_rows * b.k_words * word_bytes <= arch.max_alloc_bytes
        assert a.padded_rows * plan.tile_rows * 4 <= arch.max_alloc_bytes

    def test_impossible_problem_rejected(self):
        arch = tiny_memory_arch(max_alloc=kib(64), global_mem=kib(256))
        # A alone exceeds the budget.
        a = pack_operand(np.zeros((4096, 4096), dtype=np.uint8))
        b = pack_operand(np.zeros((8, 4096), dtype=np.uint8))
        with pytest.raises(AllocationError):
            plan_tiles(make_kernel(arch), *extents(a, b))


class TestRunPipeline:
    def test_single_tile_correct(self, small_problem):
        a_bits, b_bits, a, b = small_problem
        queue = Device(GTX_980).create_context().create_queue()
        profiles, plan = run_pipeline(queue, make_kernel(GTX_980), *extents(a, b))
        assert plan.n_tiles == 1
        assert len(profiles) == 1
        table, report = SNPComparisonFramework(GTX_980, Algorithm.LD).run(a_bits, b_bits)
        assert report.n_tiles == 1
        assert (table == ld_counts_naive(a_bits, b_bits)).all()

    def test_tiled_matches_untiled(self, small_problem):
        a_bits, b_bits, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)
        queue = Device(arch).create_context().create_queue()
        profiles, plan = run_pipeline(queue, make_kernel(arch), *extents(a, b))
        assert plan.n_tiles > 1
        assert len(profiles) == plan.n_tiles
        table, report = SNPComparisonFramework(arch, Algorithm.LD).run(a_bits, b_bits)
        assert report.n_tiles == report.n_kernel_launches > 1
        assert (table == ld_counts_naive(a_bits, b_bits)).all()

    def test_double_buffering_overlaps(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch(max_alloc=8 * 1024)

        def total_time(double_buffering):
            queue = Device(arch).create_context().create_queue()
            run_pipeline(
                queue, make_kernel(arch), *extents(a, b),
                double_buffering=double_buffering,
            )
            return queue.finish()

        overlapped = total_time(True)
        serialized = total_time(False)
        assert overlapped < serialized

    def test_buffers_released(self, small_problem):
        _, _, a, b = small_problem
        context = Device(GTX_980).create_context()
        queue = context.create_queue()
        run_pipeline(queue, make_kernel(GTX_980), *extents(a, b))
        assert context.memory.n_live == 0
        assert context.memory.allocated_bytes == 0

    def test_mismatched_device_rejected(self, small_problem):
        _, _, a, b = small_problem
        arch = tiny_memory_arch()
        queue = Device(GTX_980).create_context().create_queue()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_pipeline(queue, make_kernel(arch), *extents(a, b))


class TestScheduleFaults:
    """Device-tier faults on a 6-tile run: the schedule fires them at
    the same ordinals, in the same order, as a launch-by-launch device
    would, and the host table stays exact."""

    @pytest.mark.parametrize("double_buffering", [True, False])
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("kernel@1", [("kernel", 1, 0)]),
            ("alloc@2", [("alloc", 2, 0)]),
            ("kernel@1:2,alloc@2", [("alloc", 2, 0), ("kernel", 1, 0), ("kernel", 2, 1)]),
        ],
    )
    def test_faults_fire_at_device_ordinals(
        self, small_problem, spec, expected, double_buffering
    ):
        a_bits, b_bits, _, _ = small_problem
        fw = SNPComparisonFramework(
            tiny_memory_arch(max_alloc=8 * 1024),
            Algorithm.LD,
            double_buffering=double_buffering,
        )
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with resilient(plan=spec, policy=policy):
            table, report = fw.run(a_bits, b_bits)
        assert report.n_tiles == 6
        fired = [(e.kind, e.target, e.attempt) for e in report.resilience.events]
        assert fired == expected
        assert report.resilience.retries == sum(k == "kernel" for k, _, _ in expected)
        assert (table == ld_counts_naive(a_bits, b_bits)).all()

    def test_exhausted_kernel_retries_raise(self, small_problem):
        a_bits, b_bits, _, _ = small_problem
        fw = SNPComparisonFramework(tiny_memory_arch(max_alloc=8 * 1024), Algorithm.LD)
        with resilient(plan="kernel@3:2", policy=RetryPolicy(max_attempts=2, base_delay_s=0.0)):
            with pytest.raises(FaultInjectedError):
                fw.run(a_bits, b_bits)
