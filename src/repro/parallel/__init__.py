"""Host-side parallel execution engine for the functional bit-GEMM.

The BLIS five-loop structure exposes independent ``m_r x n_r`` output
tiles; this package shards them across one host thread pool.  The
engine has two axes -- the kernel backend every shard calls and the
plan shape (full or triangular) -- and runs one shard on the calling
thread below the crossover.  Both follow from the problem's shape and
which backends have loaded; no per-machine record is consulted:

* :mod:`repro.parallel.plan` -- :class:`ShardPlan`, derived from the
  device :class:`~repro.blis.blocking.BlockingPlan` so host sharding
  and device blocking share one partitioning arithmetic;
* :mod:`repro.parallel.engine` -- :class:`ParallelEngine`,
  :func:`bit_gemm_parallel`, and the process-wide :func:`get_engine`
  pool registry (one pool shared across simulated devices).

Every shard is one kernel-ABI panel call (:mod:`repro.kernels`).
Sharded self-comparisons with a symmetric op take the Gram path:
triangular shard plans (:meth:`ShardPlan.triangular`) compute only the
diagonal and upper triangle and mirror the rest by transposition.

Every framework table routes through this package, serial or not, as
do the multi-GPU executor and the CLI's ``--workers`` flag.  See
``docs/PARALLEL.md`` and ``docs/PERF.md``.
"""

from repro.parallel.engine import (
    PARALLEL_CROSSOVER_OPS,
    ParallelEngine,
    ParallelReport,
    ShardProfile,
    bit_gemm_parallel,
    get_engine,
    recommended_workers,
)
from repro.parallel.plan import Shard, ShardPlan, TRIANGULAR_MIN_BANDS

__all__ = [
    "PARALLEL_CROSSOVER_OPS",
    "ParallelEngine",
    "ParallelReport",
    "ShardProfile",
    "Shard",
    "ShardPlan",
    "TRIANGULAR_MIN_BANDS",
    "bit_gemm_parallel",
    "get_engine",
    "recommended_workers",
]

