"""Tests for repro.gpu.device: the OpenCL-style stack."""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.errors import AllocationError, DeviceError, KernelLaunchError
from repro.gpu.arch import GTX_980, TITAN_V
from repro.gpu.device import Device, Platform
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.snp.stats import ld_counts_naive


@pytest.fixture
def stack():
    device = Device(GTX_980)
    context = device.create_context()
    return device, context, context.create_queue()


def ld_kernel(arch=GTX_980, **kw):
    defaults = dict(m_c=32, m_r=4, k_c=383, n_r=384, grid_rows=4, grid_cols=4)
    defaults.update(kw)
    return SnpKernel.compile(arch, ComparisonOp.AND, **defaults)


class TestPlatform:
    def test_enumerates_devices(self):
        platforms = Platform.get_platforms()
        assert len(platforms) == 1
        names = [d.name for d in platforms[0].get_devices()]
        assert names == ["GTX 980", "Titan V", "Vega 64"]

    def test_device_repr(self):
        assert "GTX 980" in repr(Device(GTX_980))


class TestBuffers:
    def test_double_release_rejected(self, stack):
        _, context, _ = stack
        buf = context.create_buffer(64)
        buf.release()
        with pytest.raises(DeviceError):
            buf.release()

    def test_allocation_tracked(self, stack):
        _, context, _ = stack
        before = context.memory.allocated_bytes
        buf = context.create_buffer(4096)
        assert context.memory.allocated_bytes == before + 4096
        buf.release()
        assert context.memory.allocated_bytes == before

    def test_over_allocation_rejected(self, stack):
        _, context, _ = stack
        with pytest.raises(AllocationError):
            context.create_buffer(GTX_980.max_alloc_bytes + 1)


class TestQueueScheduling:
    def test_init_overhead_delays_first_command(self, stack):
        _, context, queue = stack
        ev = queue.enqueue_write_dry(16)
        assert ev.started_at >= context.ready_at
        assert context.ready_at == GTX_980.memory.init_overhead_s

    def test_same_engine_serializes(self, stack):
        _, _, queue = stack
        e1 = queue.enqueue_write_dry(4096)
        e2 = queue.enqueue_write_dry(4096)
        assert e2.started_at >= e1.ended_at

    def test_wait_for_respected(self, stack):
        _, _, queue = stack
        write = queue.enqueue_write_dry(1 << 20)
        read = queue.enqueue_read_dry(1 << 20, wait_for=[write])
        assert read.started_at >= write.ended_at

    def test_independent_engines_overlap(self, stack):
        _, _, queue = stack
        big = 1 << 24  # 16 MiB ~ 1.4 ms
        w1 = queue.enqueue_write_dry(big)
        # Read of A depends only on its write; a second H2D write can
        # overlap the D2H read.
        r1 = queue.enqueue_read_dry(big, wait_for=[w1])
        w2 = queue.enqueue_write_dry(big, wait_for=[w1])
        assert w2.started_at < r1.ended_at

    def test_finish_is_makespan(self, stack):
        _, _, queue = stack
        queue.enqueue_write_dry(4096)
        events_end = max(e.ended_at for e in queue.events)
        assert queue.finish() == pytest.approx(events_end)

    def test_busy_summary_keys(self, stack):
        _, _, queue = stack
        assert set(queue.busy_summary()) == {"compute", "h2d", "d2h"}


class TestKernelEnqueue:
    def test_end_to_end_correctness(self):
        rng = np.random.default_rng(0)
        bits = (rng.random((20, 150)) < 0.5).astype(np.uint8)
        fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
        out, report = fw.run(bits)
        assert (out == ld_counts_naive(bits)).all()
        # The run's device schedule: upload A and B, launch, read C.
        ea, eb, ek, er = fw.last_queue.events
        assert [e.label for e in (ea, eb, ek, er)] == [
            "write:A", "write:B[0]", "kernel[0]", "read:C[0]"
        ]
        assert ek.started_at >= max(ea.ended_at, eb.ended_at)
        assert er.started_at >= ek.ended_at
        assert report.kernel_profiles[0].seconds > 0

    def test_kernel_from_other_device_rejected(self, stack):
        _, _, queue = stack
        wrong = SnpKernel.compile(
            TITAN_V, ComparisonOp.AND, m_c=32, m_r=4, k_c=383, n_r=1024,
            grid_rows=80, grid_cols=1,
        )
        with pytest.raises(KernelLaunchError, match="compiled for"):
            queue.enqueue_kernel_dry(wrong, KernelArgs(m=4, n=4, k=1))


class TestDryRun:
    """A run (which also computes the table) prices its transfers and
    launches exactly as the dry commands price the same sizes."""

    @pytest.fixture
    def run(self):
        rng = np.random.default_rng(1)
        bits = (rng.random((16, 96)) < 0.5).astype(np.uint8)
        fw = SNPComparisonFramework(GTX_980, Algorithm.LD)
        fw.run(bits)
        return fw, fw.pack(bits)

    def test_dry_write_matches_wet_duration(self, run, stack):
        fw, a = run
        _, _, queue = stack
        wet = fw.last_queue.events[0]
        assert wet.label == "write:A"
        dry = queue.enqueue_write_dry(a.nbytes)
        assert dry.duration == pytest.approx(wet.duration)

    def test_dry_kernel_matches_wet(self, run, stack):
        fw, a = run
        _, _, queue = stack
        (wet,) = [e for e in fw.last_queue.events if e.label == "kernel[0]"]
        args = KernelArgs(m=a.padded_rows, n=a.padded_rows, k=a.k_words)
        dry, profile = queue.enqueue_kernel_dry(fw.kernel, args)
        assert dry.duration == pytest.approx(wet.duration)
        assert dry.duration == pytest.approx(
            GTX_980.memory.launch_overhead_s + profile.seconds
        )
