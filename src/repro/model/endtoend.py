"""End-to-end time estimation at arbitrary problem scale.

Runs the device schedule every framework run prices,
:func:`repro.core.pipeline.run_pipeline`, on padded extents, so a
20-million-profile FastID database (Fig. 8) is priced by the identical
code that prices a small run; nothing is materialized.  The test suite
asserts estimate == run timing on problems small enough to run.

The estimate follows the paper's end-to-end methodology (Section VI):

* OpenCL initialization included (context creation);
* host -> device transfer of A once and of B tile-by-tile;
* kernel launches per tile;
* device -> host read-back of each C tile;
* kernel compilation excluded;
* host-side packing excluded (it overlaps transfers in the real
  implementation: "allowing the CPU to pack inputs into one buffer
  while reading from another").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import Algorithm, KernelConfig
from repro.core.pipeline import run_pipeline
from repro.core.planner import derive_config
from repro.cpu.timing import CPUTimingModel
from repro.errors import ModelError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.device import Device
from repro.gpu.kernel import SnpKernel
from repro.util.bitops import words_needed

__all__ = ["EndToEndEstimate", "estimate_end_to_end", "estimate_cpu_seconds"]


@dataclass(frozen=True)
class EndToEndEstimate:
    """Itemized end-to-end prediction for one device/problem pair."""

    device: str
    algorithm: str
    m: int
    n: int
    k_bits: int
    init_s: float
    h2d_s: float
    kernel_s: float
    d2h_s: float
    end_to_end_s: float
    n_tiles: int
    kernel_word_ops: int

    @property
    def kernel_throughput_word_ops(self) -> float:
        return self.kernel_word_ops / self.kernel_s if self.kernel_s > 0 else 0.0

    @property
    def overlap_s(self) -> float:
        serial = self.init_s + self.h2d_s + self.kernel_s + self.d2h_s
        return max(0.0, serial - self.end_to_end_s)


def _pad_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def estimate_end_to_end(
    arch: GPUArchitecture,
    algorithm: Algorithm | str,
    m: int,
    n: int,
    k_bits: int,
    config: KernelConfig | None = None,
    double_buffering: bool = True,
    include_init: bool = True,
) -> EndToEndEstimate:
    """Price one end-to-end run without materializing operands.

    Pads the extents as :meth:`SNPComparisonFramework.pack
    <repro.core.framework.SNPComparisonFramework.pack>` does and runs
    the same schedule as a framework run.
    """
    algorithm = Algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    if min(m, n, k_bits) <= 0:
        raise ModelError("estimate_end_to_end: extents must be positive")
    if config is None:
        config = derive_config(arch, algorithm)
    kernel = SnpKernel.compile(
        arch,
        config.op,
        m_c=config.m_c,
        m_r=config.m_r,
        k_c=config.k_c,
        n_r=config.n_r,
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
    )
    context = Device(arch).create_context()
    if not include_init:
        context.ready_at = 0.0
    queue = context.create_queue()
    profiles, plan = run_pipeline(
        queue,
        kernel,
        _pad_up(m, config.m_r),
        _pad_up(n, config.m_r),
        words_needed(k_bits, arch.word_bits),
        double_buffering=double_buffering,
    )
    busy = queue.busy_summary()
    return EndToEndEstimate(
        device=arch.name,
        algorithm=algorithm.value,
        m=m,
        n=n,
        k_bits=k_bits,
        init_s=context.ready_at,
        h2d_s=busy["h2d"],
        kernel_s=busy["compute"],
        d2h_s=busy["d2h"],
        end_to_end_s=queue.finish(),
        n_tiles=plan.n_tiles,
        kernel_word_ops=sum(p.breakdown.word_ops for p in profiles),
    )


def estimate_cpu_seconds(
    m: int, n: int, k_bits: int, model: CPUTimingModel | None = None
) -> float:
    """The Fig. 6 CPU-baseline line ([11]'s efficiency band midpoint)."""
    return (model or CPUTimingModel()).execution_time(m, n, k_bits)
