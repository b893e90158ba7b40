"""Kernel pricing: the analytical cycle model applied to one launch.

:func:`price_kernel` derives the launch's
:class:`~repro.blis.blocking.BlockingPlan` from the compiled kernel and
prices it with :mod:`repro.gpu.cycles`.  The simulated device is a
timing model only: the comparison table itself is computed once on the
host by :meth:`repro.core.framework.SNPComparisonFramework.run_packed`
on the same kernel's blocking plan, so what is computed and what is
priced cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.cycles import CycleBreakdown, kernel_cycles
from repro.gpu.kernel import KernelArgs, SnpKernel

__all__ = [
    "KernelProfile",
    "price_kernel",
]


@dataclass(frozen=True)
class KernelProfile:
    """Timing and accounting for one simulated kernel launch.

    ``retries`` counts launch re-attempts after transient (injected)
    kernel-launch faults.
    """

    kernel_name: str
    device: str
    breakdown: CycleBreakdown
    retries: int = 0

    @property
    def seconds(self) -> float:
        return self.breakdown.seconds

    @property
    def throughput_word_ops(self) -> float:
        return self.breakdown.throughput_word_ops

    @property
    def efficiency(self) -> float:
        return self.breakdown.efficiency


def price_kernel(kernel: SnpKernel, args: KernelArgs) -> KernelProfile:
    """Price one launch with the cycle model (no table is computed).

    Every launch of the device schedule is priced here, so a 20 million
    row database (Fig. 8) costs the same to price as a small run.
    """
    plan = kernel.blocking_plan(args.m, args.n, args.k)
    breakdown = kernel_cycles(kernel.arch, plan, kernel.op)
    return KernelProfile(
        kernel_name=f"snp_{kernel.op.value}",
        device=kernel.arch.name,
        breakdown=breakdown,
    )
