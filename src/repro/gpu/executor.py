"""Kernel execution: functional results + modeled timing.

``execute_kernel`` is where the two halves of the simulation meet:

* the **functional path** computes the exact comparison table with the
  shared serial driver :func:`repro.blis.gemm.bit_gemm` -- by the one
  size rule, the ``blis`` five-loop walk for small problems
  (exercising the genuine tile structure the kernel implements) and
  the ``blas`` identity GEMM for large ones; with ``workers > 1`` it
  routes through the sharded host engine (:mod:`repro.parallel.engine`)
  instead, which partitions the same
  :class:`~repro.blis.blocking.BlockingPlan` across a thread pool;
* the **timing path** prices the launch with the analytical cycle
  model (:mod:`repro.gpu.cycles`).

Both consume the same :class:`~repro.blis.blocking.BlockingPlan`, so
what is computed and what is priced cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blis.gemm import bit_gemm, same_operand
from repro.errors import KernelLaunchError, ReproError
from repro.gpu.cycles import CycleBreakdown, kernel_cycles
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.kernels import pick_backend
from repro.observability.counters import KERNEL_LAUNCHES, KERNEL_RETRIES
from repro.observability.tracer import get_tracer
from repro.parallel.engine import ParallelReport, get_engine
from repro.resilience.retry import Disposition, classify
from repro.resilience.runtime import get_resilience

__all__ = [
    "KernelProfile",
    "execute_kernel",
    "price_kernel",
]


@dataclass(frozen=True)
class KernelProfile:
    """Timing and accounting for one simulated kernel launch.

    ``backend`` names the kernel backend that computed the functional
    table (``""`` for timing-only launches).  ``parallel`` carries the
    host-engine report (shard profiles) when the functional path ran
    on the engine; ``None`` for serial and timing-only launches.
    ``retries`` counts launch re-attempts after transient (injected)
    kernel-launch faults.
    """

    kernel_name: str
    device: str
    breakdown: CycleBreakdown
    backend: str
    parallel: ParallelReport | None = None
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
    """Timing-only launch: the cycle model without functional compute.

    Used by the end-to-end estimator for paper-scale problems (a 20
    million row database is priced, not materialized).  On any problem
    both paths produce *identical* timing because they share the plan
    and the cycle model -- the test suite asserts this.
    """
    plan = kernel.blocking_plan(args.m, args.n, args.k)
    breakdown = kernel_cycles(kernel.arch, plan, kernel.op)
    return KernelProfile(
        kernel_name=f"snp_{kernel.op.value}",
        device=kernel.arch.name,
        breakdown=breakdown,
        backend="",
    )


def execute_kernel(
    kernel: SnpKernel,
    a_words: np.ndarray,
    b_words: np.ndarray,
    args: KernelArgs | None = None,
    workers: int | None = None,
    symmetric: bool | None = None,
    backend: str = "auto",
    executor: str = "auto",
) -> tuple[np.ndarray, KernelProfile]:
    """Run one kernel launch; returns (C table, profile).

    Parameters
    ----------
    kernel:
        A compiled :class:`SnpKernel`.
    a_words, b_words:
        Packed operands of shape ``(m, k)`` and ``(n, k)`` in the
        device's word width.
    args:
        Explicit extents; default derives them from the operands.
    workers:
        With ``workers > 1`` the functional table is computed by the
        sharded host engine on a shared thread pool (bit-exact; the
        engine falls back to the serial driver below its crossover).
        ``None``/``1`` keeps the serial driver.
    symmetric:
        Gram-mode hint.  ``None`` auto-detects (same packed matrix on
        both sides + symmetric op); ``True`` requires it (validated);
        ``False`` disables the triangular path even for
        self-comparisons.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`) for the functional
        table; an explicit name is validated.  On the serial path the
        size rule of :func:`repro.kernels.pick_backend` applies:
        Gram-mode runs up to its limit walk the ``blis`` triangle on
        the kernel's own plan, ``"auto"`` defers to ``REPRO_BACKEND``
        and then to ``blis``/``blas`` by size.  The engine path
        additionally consults the tuner.
    executor:
        Host-engine shard executor (``"auto"``/``"thread"``/
        ``"process"``): where the engine path runs its shards (see
        :mod:`repro.parallel.procpool`).  Only used when the engine
        path runs.
    """
    a = np.asarray(a_words)
    b = np.asarray(b_words)
    expected = np.uint32 if kernel.arch.word_bits == 32 else np.uint64
    if a.dtype != expected or b.dtype != expected:
        raise KernelLaunchError(
            f"execute_kernel: operands must be {expected.__name__} on "
            f"{kernel.arch.name}, got {a.dtype}/{b.dtype}"
        )
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise KernelLaunchError(
            f"execute_kernel: bad operand shapes {a.shape} / {b.shape}"
        )
    if args is None:
        args = KernelArgs(m=a.shape[0], n=b.shape[0], k=a.shape[1])
    if (args.m, args.k) != a.shape or (args.n, args.k) != b.shape:
        raise KernelLaunchError(
            f"execute_kernel: args {args} inconsistent with operands "
            f"{a.shape} / {b.shape}"
        )

    plan = kernel.blocking_plan(args.m, args.n, args.k)
    obs = get_tracer()
    res = get_resilience()
    obs.counters.add(KERNEL_LAUNCHES)
    parallel_report: ParallelReport | None = None
    launch_retries = 0
    with obs.span(
        "kernel.execute",
        kernel=f"snp_{kernel.op.value}",
        device=kernel.arch.name,
        m=args.m,
        n=args.n,
        k=args.k,
    ):
        # Launch loop: an injected transient kernel-launch fault (or a
        # retryable fault that escaped the engine's shard-level
        # handling) is re-attempted under the active retry policy; each
        # attempt consumes one kernel ordinal, so ``kernel:c`` specs
        # model c consecutive failed launches before success.
        attempt = 0
        while True:
            try:
                res.injector.check("kernel", attempt=attempt)
                if workers is not None and workers > 1:
                    c, parallel_report = get_engine(
                        workers, backend, executor
                    ).run(a, b, kernel.op, plan=plan, symmetric=symmetric)
                    ran = parallel_report.backend
                else:
                    serial_symmetric = (
                        kernel.op.is_symmetric and same_operand(a, b)
                        if symmetric is None
                        else symmetric
                    )
                    ran = pick_backend(
                        plan.total_ops(), serial_symmetric, backend
                    )
                    c = bit_gemm(
                        a, b, kernel.op, backend=ran, plan=plan,
                        symmetric=serial_symmetric,
                    )
                break
            except ReproError as exc:
                if (
                    classify(exc) is not Disposition.RETRY
                    or attempt + 1 >= res.policy.max_attempts
                ):
                    raise
                launch_retries += 1
                obs.counters.add(KERNEL_RETRIES)
                res.policy.wait(launch_retries - 1)
                attempt += 1

    breakdown = kernel_cycles(kernel.arch, plan, kernel.op)
    profile = KernelProfile(
        kernel_name=f"snp_{kernel.op.value}",
        device=kernel.arch.name,
        breakdown=breakdown,
        backend=ran,
        parallel=parallel_report,
        retries=launch_retries,
    )
    return c, profile
