"""Host-side parallel execution engine for the functional bit-GEMM.

The BLIS five-loop structure exposes independent ``m_r x n_r`` output
tiles; this package shards them across a host thread pool:

* :mod:`repro.parallel.plan` -- :class:`ShardPlan`, derived from the
  device :class:`~repro.blis.blocking.BlockingPlan` so host sharding
  and device blocking share one partitioning arithmetic;
* :mod:`repro.parallel.engine` -- :class:`ParallelEngine`,
  :func:`bit_gemm_parallel`, and the process-wide :func:`get_engine`
  pool registry (one pool shared across simulated devices);
* :mod:`repro.parallel.procpool` -- :class:`ProcessShardExecutor`,
  the ``executor="process"`` tier: worker processes with operands
  published through shared memory / mmap (``docs/DISTRIBUTED.md``);
* :mod:`repro.parallel.tuner` -- the persisted host autotuner that
  ``backend="auto"`` (and ``executor="auto"``) consults
  (:func:`tune_problem`, :func:`lookup_tuned`).

Every shard is one kernel-ABI panel call (:mod:`repro.kernels`).
Self-comparisons with a symmetric op take the Gram path: triangular
shard plans (:meth:`ShardPlan.triangular`) compute only the diagonal
and upper triangle and mirror the rest by transposition.

Entry points that accept ``workers`` --
:func:`repro.gpu.executor.execute_kernel`, the framework/pipeline, the
multi-GPU executor, and the CLI's ``--workers`` flag -- all route
through this package.  See ``docs/PARALLEL.md`` and ``docs/PERF.md``.
"""

from typing import TYPE_CHECKING, Any

from repro.parallel.engine import (
    EXECUTORS,
    PARALLEL_CROSSOVER_OPS,
    REPRO_EXECUTOR_ENV,
    ParallelEngine,
    ParallelReport,
    ShardProfile,
    bit_gemm_parallel,
    get_engine,
    recommended_workers,
)
from repro.parallel.plan import Shard, ShardPlan, TRIANGULAR_MIN_BANDS
from repro.parallel.tuner import (
    TuningCache,
    TuningRecord,
    configure_tuning,
    lookup_tuned,
    tune_problem,
)

__all__ = [
    "EXECUTORS",
    "PARALLEL_CROSSOVER_OPS",
    "ProcessShardExecutor",
    "REPRO_EXECUTOR_ENV",
    "ParallelEngine",
    "ParallelReport",
    "ShardProfile",
    "Shard",
    "ShardPlan",
    "TRIANGULAR_MIN_BANDS",
    "TuningCache",
    "TuningRecord",
    "bit_gemm_parallel",
    "configure_tuning",
    "get_engine",
    "lookup_tuned",
    "recommended_workers",
    "tune_problem",
]


if TYPE_CHECKING:  # the lazy re-export below, visible to type checkers
    from repro.parallel.procpool import (
        ProcessShardExecutor as ProcessShardExecutor,
    )


def __getattr__(name: str) -> Any:
    # ProcessShardExecutor is re-exported lazily: the process tier
    # pulls in multiprocessing machinery (shared_memory, spawn context)
    # most runs never need, and ParallelEngine imports it on first
    # ``executor="process"`` use for the same reason.
    if name == "ProcessShardExecutor":
        from repro.parallel.procpool import ProcessShardExecutor

        return ProcessShardExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
