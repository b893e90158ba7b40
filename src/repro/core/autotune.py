"""Model-driven configuration search: tuning beyond Table II.

The paper fixes one configuration per (device, algorithm).  Because the
cycle model prices *any* configuration, we can close the loop: sweep
the legal configuration space for a concrete problem shape and pick the
modeled optimum.  This answers the practical question Table II leaves
open -- "my problem is not the paper's benchmark shape; what should the
header say?" -- with the same analytical machinery (the paper's
Section V philosophy taken one step further).

Search space:

* ``n_r``: multiples of the Eq. 7 lower bound up to the register cap
  (both from :mod:`repro.core.planner`), kept ``L_fn``-divisible;
* core grids: all factor pairs of usable core counts ``<= N_c``
  (including grids that deliberately idle cores -- occasionally
  optimal for tiny problems where the launch constant dominates);
* ``m_r``, ``m_c``, ``k_c``: held at their analytic values (Eqs. 4-6
  are equalities, not tunables).

The sweep is exhaustive but small (tens to a few hundred candidates)
and each candidate costs one closed-form evaluation.

:func:`host_tune` is the measured counterpart for the *host* engine:
it bridges to :mod:`repro.parallel.tuner`, which benchmarks the
kernel backends x {full, triangular} plan shapes on this machine and
persists the winner for ``backend="auto"`` to consult.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm, KernelConfig
from repro.core.planner import (
    ProblemShape,
    derive_config,
    derive_k_c,
    derive_m_c,
    derive_m_r,
    n_r_lower_bound,
    n_r_register_cap,
)
from repro.errors import ConfigurationError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.cycles import kernel_cycles
from repro.gpu.kernel import SnpKernel

__all__ = ["TuneResult", "autotune", "candidate_configs", "host_tune"]


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one autotuning sweep."""

    config: KernelConfig
    modeled_seconds: float
    candidates_evaluated: int
    published_seconds: float | None

    @property
    def gain_over_published(self) -> float | None:
        """Modeled speedup of the tuned config over the published one."""
        if self.published_seconds is None:
            return None
        return self.published_seconds / self.modeled_seconds


def _grids(n_c: int) -> list[tuple[int, int]]:
    grids = set()
    for cores in range(1, n_c + 1):
        for rows in range(1, cores + 1):
            if cores % rows == 0:
                grids.add((rows, cores // rows))
    return sorted(grids)


def candidate_configs(
    arch: GPUArchitecture,
    algorithm: Algorithm,
    op: ComparisonOp,
) -> list[KernelConfig]:
    """Enumerate the legal configuration space for (arch, algorithm)."""
    m_r = derive_m_r(arch)
    m_c = derive_m_c(arch)
    k_c = derive_k_c(arch)
    lower = n_r_lower_bound(arch)
    cap = n_r_register_cap(arch)
    n_r_values = [
        n_r
        for n_r in range(lower, cap + 1, lower)
        if n_r % arch.l_fn == 0
    ]
    if not n_r_values:
        raise ConfigurationError(
            f"candidate_configs: empty n_r corridor on {arch.name}"
        )
    configs = []
    for n_r in n_r_values:
        for rows, cols in _grids(arch.n_c):
            configs.append(
                KernelConfig(
                    device=arch.name,
                    algorithm=algorithm,
                    op=op,
                    m_r=m_r,
                    n_r=n_r,
                    k_c=k_c,
                    m_c=m_c,
                    grid_rows=rows,
                    grid_cols=cols,
                )
            )
    return configs


def autotune(
    arch: GPUArchitecture,
    algorithm: Algorithm | str,
    problem: ProblemShape,
    compare_published: bool = True,
) -> TuneResult:
    """Pick the modeled-fastest configuration for ``problem``.

    Every candidate is validated through the kernel compile checks
    before evaluation, so the winner is guaranteed launchable.
    """
    algorithm = Algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    op = derive_config(arch, algorithm).op
    k_words = -(-problem.k_bits // arch.word_bits)

    best: KernelConfig | None = None
    best_seconds = float("inf")
    evaluated = 0
    for config in candidate_configs(arch, algorithm, op):
        try:
            kernel = SnpKernel.compile(
                arch, config.op,
                m_c=config.m_c, m_r=config.m_r, k_c=config.k_c, n_r=config.n_r,
                grid_rows=config.grid_rows, grid_cols=config.grid_cols,
            )
        except ConfigurationError:
            continue
        plan = kernel.blocking_plan(problem.m, problem.n, k_words)
        seconds = kernel_cycles(arch, plan, config.op).seconds
        evaluated += 1
        if seconds < best_seconds:
            best, best_seconds = config, seconds
    if best is None:
        raise ConfigurationError(
            f"autotune: no launchable configuration on {arch.name}"
        )

    published_seconds = None
    if compare_published:
        published = derive_config(arch, algorithm)
        kernel = SnpKernel.compile(
            arch, published.op,
            m_c=published.m_c, m_r=published.m_r, k_c=published.k_c,
            n_r=published.n_r,
            grid_rows=published.grid_rows, grid_cols=published.grid_cols,
        )
        plan = kernel.blocking_plan(problem.m, problem.n, k_words)
        published_seconds = kernel_cycles(arch, plan, published.op).seconds

    return TuneResult(
        config=best,
        modeled_seconds=best_seconds,
        candidates_evaluated=evaluated,
        published_seconds=published_seconds,
    )


def host_tune(
    problem: ProblemShape,
    op: ComparisonOp | str = ComparisonOp.AND,
    workers: int | None = None,
    word_bits: int = 64,
    repeats: int = 1,
    persist: bool = True,
):
    """Measure-and-persist host backend tuning for ``problem``.

    Unlike :func:`autotune` (closed-form device model), this actually
    *runs* the candidate backends on synthetic operands of the
    problem's shape and stores the winner in the persisted host tuning
    cache (see :mod:`repro.parallel.tuner`).  Returns the
    :class:`~repro.parallel.tuner.TuningRecord` recorded.
    """
    from repro.parallel.tuner import tune_problem

    k_words = -(-problem.k_bits // word_bits)
    return tune_problem(
        problem.m,
        problem.n,
        k_words,
        op=op,
        workers=workers,
        repeats=repeats,
        persist=persist,
    )
