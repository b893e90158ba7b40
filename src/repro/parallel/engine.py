"""Parallel sharded execution of the functional bit-GEMM.

The host-side counterpart of the paper's core-grid parallelism: the
output C is partitioned into shards (:mod:`repro.parallel.plan`), each
shard runs on a ``concurrent.futures`` thread pool -- the NumPy
bitwise/popcount/GEMM kernels release the GIL, so shards genuinely
overlap on multicore hosts -- and every shard writes its disjoint
block of the shared output array (the partial-``gamma`` reduction is
race-free by construction).

The engine has three axes:

* **Backend** -- every shard runs one kernel-ABI panel call,
  ``backend.bit_gemm_panel(a[m0:m1], b[n0:n1], op)``
  (:mod:`repro.kernels`): ``blas`` (float32 BLAS identities), ``blis``
  (the five-loop walk), ``numpy`` (the reference word-walk) or a
  compiled ``cnative``/``numba`` panel.  ``backend="auto"`` resolves,
  in order: the ``REPRO_BACKEND`` environment variable, the tuning
  record's measured winner (:mod:`repro.parallel.tuner`), then the
  size rule of :func:`repro.kernels.pick_backend` (``blis`` up to
  :data:`~repro.kernels.BLIS_OP_LIMIT` word-ops, ``blas`` above).
  Deterministic counters are backend-invariant: every shard records
  the same ``SHARDS_EXECUTED`` and ``GEMM_WORD_OPS`` whichever backend
  computes its block.
* **Executor** -- *where* shards run: ``executor="thread"`` (the pool
  above), ``"process"`` (a
  :class:`~repro.parallel.procpool.ProcessShardExecutor` pool of
  worker processes with operands published through shared memory /
  mmap), or ``"auto"`` which honours the ``REPRO_EXECUTOR``
  environment variable, then the tuning cache's measured winner, then
  threads.  Worker processes ship per-shard counter deltas that the
  parent merges, so counters match across executors; lost workers'
  shards re-run on survivors and the run's
  :class:`~repro.resilience.report.ResilienceReport` carries
  ``workers_lost``.
* **Plan shape** -- full or triangular.  When both operands are the
  *same* packed matrix (``same_operand``) and the op is symmetric, the
  output satisfies ``C == C.T`` and the engine switches to a
  triangular shard plan (:meth:`~repro.parallel.plan.ShardPlan.triangular`):
  only diagonal and upper-triangular shards are computed; each
  off-diagonal shard also reflects its block into the transpose slot
  (``mirror=True``, counted by :data:`SHARDS_MIRRORED`).  The
  :data:`GEMM_WORD_OPS` counter records only *computed* word-ops, so
  Gram runs show roughly ``(g + 1) / (2 g)`` of the full-path count.

Problems below the crossover threshold -- or ``workers=1`` -- take the
serial driver :func:`repro.blis.gemm.bit_gemm` (the same size rule;
its Gram form walks the ``blis`` triangle), so the engine is safe to
leave enabled everywhere.  Serial, threaded and process runs execute
through the same :func:`execute_shard` retry/quarantine/verify
ladder, so results are bit-exact across all of them.

Per-shard timing surfaces as :class:`ShardProfile` records (the
host-side analogue of :class:`repro.gpu.executor.KernelProfile`)
inside a :class:`ParallelReport`.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import (
    HOST_BLOCKING,
    bit_gemm,
    bit_gemm_reference,
    check_symmetric,
    host_plan,
    same_operand,
)
from repro.blis.microkernel import ComparisonOp
from repro.errors import (
    ConfigurationError,
    PackingError,
    ReproError,
    ShardExecutionError,
)
from repro.kernels import (
    KernelBackend,
    backend_available,
    check_panel_operands,
    env_backend_name,
    get_backend,
    pick_backend,
)
from repro.observability.counters import (
    GEMM_CALLS,
    GEMM_WORD_OPS,
    HOST_ENGINE_SECONDS,
    SHARD_RETRIES,
    SHARDS_EXECUTED,
    SHARDS_MIRRORED,
    SHARDS_QUARANTINED,
    TILES_VERIFIED,
    VERIFY_MISMATCHES,
)
from repro.observability.report import MetricsReport
from repro.observability.tracer import get_tracer
from repro.parallel.plan import TRIANGULAR_MIN_BANDS, Shard, ShardPlan
from repro.resilience.faults import FiredFault
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import Disposition, classify
from repro.resilience.runtime import ResilienceContext, get_resilience
from repro.util.validation import check_workers

if TYPE_CHECKING:
    from repro.parallel.procpool import ProcessShardExecutor
    from repro.parallel.tuner import TuningRecord

#: Shard kernel contract: (shard, a, b, op, plan) -> output block.
ShardCompute = Callable[[Shard, np.ndarray, np.ndarray, ComparisonOp, BlockingPlan], np.ndarray]

__all__ = [
    "EXECUTORS",
    "PARALLEL_CROSSOVER_OPS",
    "REPRO_EXECUTOR_ENV",
    "ShardProfile",
    "ParallelReport",
    "ParallelEngine",
    "bit_gemm_parallel",
    "execute_shard",
    "get_engine",
    "shard_compute",
]

#: Environment variable selecting the shard executor when an engine is
#: constructed with ``executor="auto"`` (values: ``thread``,
#: ``process``).  CI's process leg sets ``REPRO_EXECUTOR=process`` to
#: run the whole suite through the process pool.
REPRO_EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Valid ``executor=`` arguments.
EXECUTORS = ("auto", "thread", "process")

#: Problems below this many packed-word operations run the serial
#: driver: pool dispatch costs more than it saves on small tables.
PARALLEL_CROSSOVER_OPS = 1 << 21


def _gram_blocking(plan: BlockingPlan) -> BlockingPlan:
    """Pick the blocking a symmetric (Gram) run should shard with.

    Device-derived plans favour column-spanning ``n_r`` (one core row
    covers a whole column band), which inflates ``lcm(m_r, n_r)`` to
    the full extent and collapses the triangular decomposition to a
    single full-compute band.  The host walk has no such constraint:
    when the engine's default host blocking bands more finely than the
    given plan, substitute it.  Extents are preserved, the result is
    bit-exact for any valid blocking, and simulated device timing is
    unaffected (it is priced off the kernel's own plan upstream).
    """
    given_unit = math.lcm(plan.m_r, plan.n_r)
    host_unit = math.lcm(HOST_BLOCKING["m_r"], HOST_BLOCKING["n_r"])
    if given_unit <= host_unit:
        return plan
    given_bands = max(1, plan.m // given_unit)
    host_bands = max(1, plan.m // host_unit)
    if given_bands >= min(TRIANGULAR_MIN_BANDS, host_bands):
        return plan
    return host_plan(plan.m, plan.n, plan.k)


@dataclass(frozen=True)
class ShardProfile:
    """Timing and accounting for one shard (KernelProfile analogue).

    ``mirrored`` marks Gram-mode off-diagonal shards: the block was
    computed once and additionally reflected into its transpose slot
    (the reflected word-ops are *not* in ``word_ops``).

    The resilience fields record the unhappy path: ``retries`` counts
    re-executions after retryable faults, ``quarantined`` marks a shard
    whose budget was exhausted and whose block was recomputed on the
    serial reference path, ``verified`` marks a shard the
    spot-verification guard re-checked, and ``mismatched`` marks a
    verified shard whose block disagreed with the reference (the
    reference block was adopted).
    """

    shard_id: int
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    word_ops: int
    seconds: float
    mirrored: bool = False
    retries: int = 0
    quarantined: bool = False
    verified: bool = False
    mismatched: bool = False

    @property
    def throughput_word_ops(self) -> float:
        """Word-ops per second of shard wall time."""
        return self.word_ops / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ParallelReport:
    """What one engine run did: backend, plan and per-shard records.

    ``backend`` names the kernel backend that computed the table.
    ``metrics`` carries the run-scoped observability delta (counters
    plus span aggregates) when tracing was enabled; ``None`` otherwise.
    ``resilience`` carries the fault-tolerance accounting when a
    resilience context was active during the run; ``None`` otherwise.
    ``executor`` names the resolved shard executor (``"thread"`` or
    ``"process"`` -- serial fallbacks report the executor the run
    *would* have sharded on).  For process runs, ``worker_events``
    carries injector events that fired inside worker processes plus
    the parent-synthesized ``worker-lost`` events, and
    ``workers_lost`` counts worker processes that died mid-run (their
    shards were re-executed on the survivors).
    """

    workers: int
    used_parallel: bool
    seconds: float
    backend: str
    shard_plan: ShardPlan | None = None
    shard_profiles: list[ShardProfile] = field(default_factory=list)
    metrics: MetricsReport | None = None
    symmetric: bool = False
    resilience: ResilienceReport | None = None
    executor: str = "thread"
    worker_events: tuple[FiredFault, ...] = ()
    workers_lost: int = 0

    @property
    def n_shards(self) -> int:
        return len(self.shard_profiles)

    @property
    def n_mirrored(self) -> int:
        """Shards whose transpose slot was filled by reflection."""
        return sum(1 for p in self.shard_profiles if p.mirrored)

    @property
    def n_retries(self) -> int:
        """Total shard re-executions after retryable faults."""
        return sum(p.retries for p in self.shard_profiles)

    @property
    def n_quarantined(self) -> int:
        """Shards recomputed on the serial reference path."""
        return sum(1 for p in self.shard_profiles if p.quarantined)

    @property
    def total_word_ops(self) -> int:
        return sum(p.word_ops for p in self.shard_profiles)

    @property
    def shard_seconds(self) -> float:
        """Sum of per-shard wall times (> ``seconds`` when overlapped)."""
        return sum(p.seconds for p in self.shard_profiles)

    @property
    def throughput_word_ops(self) -> float:
        return self.total_word_ops / self.seconds if self.seconds > 0 else 0.0


class ParallelEngine:
    """Shards one bit-GEMM across a host thread or process pool.

    Parameters
    ----------
    workers:
        Pool threads.  Default: ``os.cpu_count()``.  ``1`` always takes
        the serial driver.
    oversubscribe:
        Shards per worker the plan aims for (see :class:`ShardPlan`).
    crossover_ops:
        Problems below this many word-ops run serially.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`) every shard calls.
        ``"auto"`` honours the ``REPRO_BACKEND`` environment variable,
        then the persisted tuning record for the problem's size class,
        then the size rule of :func:`repro.kernels.pick_backend`.
    executor:
        Where shards run: ``"thread"`` (in-process pool),
        ``"process"`` (worker processes with shared-memory operands,
        :mod:`repro.parallel.procpool`), or ``"auto"`` which resolves,
        in order: the ``REPRO_EXECUTOR`` environment variable, the
        tuning record's measured winner, then ``"thread"``.

    One engine owns one lazily created pool; it is reused across runs
    and across callers -- :func:`get_engine` hands the same engine to
    every simulated device, so a multi-GPU run shares a single pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        oversubscribe: int = 2,
        crossover_ops: int = PARALLEL_CROSSOVER_OPS,
        backend: str = "auto",
        executor: str = "auto",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        try:
            check_workers("ParallelEngine: workers", workers)
        except ValueError as exc:
            # ConfigurationError subclasses ValueError, so callers
            # catching either see the shared validator's message.
            raise ConfigurationError(str(exc)) from None
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"ParallelEngine: unknown executor {executor!r} "
                f"(valid: {', '.join(EXECUTORS)})"
            )
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.workers = workers
        self.oversubscribe = oversubscribe
        self.crossover_ops = crossover_ops
        self.backend = backend
        self.executor = executor
        self._pool: ThreadPoolExecutor | None = None
        self._procpool: "ProcessShardExecutor | None" = None
        self._pool_lock = threading.Lock()

    # -- pool management -------------------------------------------------------

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def _get_procpool(self) -> "ProcessShardExecutor":
        with self._pool_lock:
            if self._procpool is None:
                # Imported lazily: the process tier pulls in
                # multiprocessing machinery most runs never need.
                from repro.parallel.procpool import ProcessShardExecutor

                self._procpool = ProcessShardExecutor(self.workers)
            return self._procpool

    def shutdown(self) -> None:
        """Release the pools (a later run recreates them)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._procpool is not None:
                self._procpool.shutdown()
                self._procpool = None

    # -- entry point -----------------------------------------------------------

    def run(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
        plan: BlockingPlan | None = None,
        force_parallel: bool | None = None,
        symmetric: bool | None = None,
    ) -> tuple[np.ndarray, ParallelReport]:
        """Compute ``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))``.

        Returns the int64 table and a :class:`ParallelReport`.
        ``force_parallel`` overrides the crossover heuristic (tests and
        benchmarks use it); ``plan`` pins the blocking the shard plan
        derives from.  ``symmetric`` controls Gram mode: ``None``
        (default) auto-detects (same matrix on both sides + symmetric
        op), ``True`` requires and validates it, ``False`` disables it.
        """
        a, b, op = check_panel_operands(a, b, op)
        m, k = a.shape
        n = b.shape[0]
        if symmetric is None:
            symmetric = op.is_symmetric and same_operand(a, b)
        elif symmetric:
            check_symmetric("ParallelEngine.run", a, b, op)
            b = a  # equal content, now one operand to share and publish
        if plan is None:
            plan = host_plan(m, n, k)
        if (plan.m, plan.n, plan.k) != (m, n, k):
            raise PackingError(
                f"ParallelEngine.run: plan extents {(plan.m, plan.n, plan.k)} "
                f"do not match operands {(m, n, k)}"
            )
        if symmetric:
            plan = _gram_blocking(plan)
        crossover = self.crossover_ops
        backend_name = self.backend
        if backend_name == "auto":
            backend_name = env_backend_name() or "auto"
        executor = self.executor
        if executor == "auto":
            env_executor = os.environ.get(REPRO_EXECUTOR_ENV, "").strip()
            if env_executor:
                if env_executor not in ("thread", "process"):
                    raise ConfigurationError(
                        f"{REPRO_EXECUTOR_ENV}: unknown executor "
                        f"{env_executor!r} (valid: thread, process)"
                    )
                executor = env_executor
        if backend_name == "auto" or executor == "auto":
            tuned, executor = self._consult_tuner(
                op, m, n, k, a.dtype.itemsize * 8, executor
            )
            if tuned is not None:
                if symmetric and not tuned.triangular:
                    symmetric = False
                if tuned.crossover_ops is not None:
                    crossover = tuned.crossover_ops
                if backend_name == "auto" and backend_available(tuned.backend):
                    backend_name = tuned.backend
        use_parallel = (
            self.workers > 1 and plan.total_ops() >= crossover
            if force_parallel is None
            else force_parallel and self.workers >= 1
        )
        obs = get_tracer()
        res = get_resilience()
        counters_before = obs.counters.snapshot() if obs.enabled else None
        spans_before = obs.n_spans()
        events_before = res.injector.n_fired()
        with obs.span(
            "parallel.run", m=m, n=n, k=k, workers=self.workers
        ).set(parallel=use_parallel, symmetric=symmetric):
            if not use_parallel:
                c, report = self._run_serial(
                    a, b, op, plan, symmetric, backend_name
                )
            else:
                c, report = self._run_sharded(
                    a, b, op, plan, symmetric, backend_name, executor
                )
        obs.counters.add(HOST_ENGINE_SECONDS, report.seconds)
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        if res.active or report.workers_lost:
            # Worker-process events (injector firings shipped from
            # workers plus parent-synthesized worker-lost records) join
            # the parent injector's log, keeping `fired_count` exact
            # across executors; thread/serial runs ship none.  Without
            # an active context the null injector drops absorbed
            # events, so fold them into the report directly instead.
            if res.active and report.worker_events:
                res.injector.absorb(report.worker_events)
                events = tuple(res.injector.fired()[events_before:])
            else:
                events = (
                    tuple(res.injector.fired()[events_before:])
                    + report.worker_events
                )
            report.resilience = ResilienceReport(
                faults_injected=len(events),
                retries=report.n_retries,
                quarantined=report.n_quarantined,
                tiles_verified=sum(
                    1 for p in report.shard_profiles if p.verified
                ),
                verify_mismatches=sum(
                    1 for p in report.shard_profiles if p.mismatched
                ),
                workers_lost=report.workers_lost,
                events=events,
            )
        return c, report

    def _consult_tuner(
        self,
        op: ComparisonOp,
        m: int,
        n: int,
        k: int,
        word_bits: int,
        executor: str,
    ) -> "tuple[TuningRecord | None, str]":
        """Best-effort lookup in the persisted host tuning cache.

        Returns ``(record, executor)``.  With ``executor="auto"`` the
        thread and process records for the size class are compared and
        the measured winner picked (``"thread"`` when neither exists
        -- untuned hosts stay on the in-process pool).  Any failure
        (missing, corrupt, or stale cache; import problems) degrades to
        ``(None, ...)`` -- ``"auto"`` then falls back to its built-in
        default.  Imported lazily to avoid an import cycle (the tuner
        benchmarks through this engine).
        """
        fallback = "thread" if executor == "auto" else executor
        try:
            from repro.parallel.tuner import lookup_tuned

            if executor != "auto":
                record = lookup_tuned(
                    op, m, n, k, word_bits, self.workers, executor=executor
                )
                return record, executor
            thread_record = lookup_tuned(
                op, m, n, k, word_bits, self.workers, executor="thread"
            )
            process_record = lookup_tuned(
                op, m, n, k, word_bits, self.workers, executor="process"
            )
            if process_record is not None and (
                thread_record is None
                or process_record.best_seconds < thread_record.best_seconds
            ):
                return process_record, "process"
            return thread_record, "thread"
        except Exception:  # pragma: no cover - defensive degradation
            return None, fallback

    # -- serial driver -----------------------------------------------------------

    def _run_serial(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        symmetric: bool,
        backend_name: str,
    ) -> tuple[np.ndarray, ParallelReport]:
        name = pick_backend(plan.total_ops(), symmetric, backend_name)

        def compute(
            shard: Shard,
            a_: np.ndarray,
            b_: np.ndarray,
            op_: ComparisonOp,
            plan_: BlockingPlan,
        ) -> np.ndarray:
            get_tracer().counters.add(SHARDS_EXECUTED)
            return bit_gemm(
                a_, b_, op_, backend=name, plan=plan_, symmetric=symmetric
            )

        # The serial run goes through the same resilient wrapper as
        # pool shards, addressed as shard 0 -- one fault model whether
        # or not the crossover picked the pool.
        whole = Shard(
            shard_id=0,
            grid_row=0,
            grid_col=0,
            m_range=(0, plan.m),
            n_range=(0, plan.n),
        )
        start = time.perf_counter()
        c = np.zeros((plan.m, plan.n), dtype=np.int64)
        profile = execute_shard(
            compute, whole, a, b, op, plan, c, get_resilience()
        )
        report = ParallelReport(
            workers=1,
            used_parallel=False,
            seconds=time.perf_counter() - start,
            backend=name,
            shard_profiles=[profile],
            symmetric=symmetric,
        )
        return c, report

    # -- sharded execution ---------------------------------------------------------

    def _run_sharded(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        symmetric: bool,
        backend_name: str,
        executor: str,
    ) -> tuple[np.ndarray, ParallelReport]:
        shard_plan = ShardPlan.from_blocking(
            plan, self.workers, oversubscribe=self.oversubscribe,
            symmetric=symmetric,
        )
        # The triangle lives in the shard plan, so shards take the full
        # size rule's choice, never the serial Gram walk.
        name = pick_backend(plan.total_ops(), False, backend_name)
        # One logical GEMM however many shards execute it; per-shard
        # word-ops sum to plan.total_ops() because shards partition C
        # (Gram plans: to the computed triangle's share of it).
        get_tracer().counters.add(GEMM_CALLS)
        res = get_resilience()
        report = ParallelReport(
            workers=self.workers,
            used_parallel=True,
            seconds=0.0,
            backend=name,
            shard_plan=shard_plan,
            symmetric=symmetric,
            executor="thread",
        )
        start = time.perf_counter()
        if executor == "process" and shard_plan.n_shards > 1:
            result = self._get_procpool().execute(
                a, b, op, plan, shard_plan, name, res
            )
            c = result.c
            report.shard_profiles = result.profiles
            report.executor = "process"
            report.worker_events = result.worker_events
            report.workers_lost = result.workers_lost
        else:
            # A single-shard "process" request degrades to in-thread
            # execution; the report names the tier that actually ran.
            compute = shard_compute(get_backend(name))
            c = np.zeros((plan.m, plan.n), dtype=np.int64)
            if shard_plan.n_shards <= 1:
                profiles = [
                    execute_shard(compute, shard, a, b, op, plan, c, res)
                    for shard in shard_plan.shards
                ]
            else:
                pool = self._get_pool()
                futures = [
                    pool.submit(
                        execute_shard, compute, shard, a, b, op, plan, c, res
                    )
                    for shard in shard_plan.shards
                ]
                profiles = [f.result() for f in futures]
            report.shard_profiles = sorted(profiles, key=lambda p: p.shard_id)
        report.seconds = time.perf_counter() - start
        return c, report


# -- shard execution ---------------------------------------------------------------


def shard_compute(backend: KernelBackend) -> ShardCompute:
    """The shard kernel every executor runs: one backend panel call.

    Counter accounting is backend-invariant (``SHARDS_EXECUTED`` plus
    the shard's word-ops), so the deterministic counters the
    regression gate compares do not depend on which backend ran.
    """
    name = backend.name

    def compute(
        shard: Shard,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
    ) -> np.ndarray:
        obs = get_tracer()
        obs.counters.add(SHARDS_EXECUTED)
        obs.counters.add(GEMM_WORD_OPS, shard.word_ops(plan.k))
        with obs.span("parallel.shard", shard=shard.shard_id, backend=name):
            m0, m1 = shard.m_range
            n0, n1 = shard.n_range
            return backend.bit_gemm_panel(a[m0:m1], b[n0:n1], op)

    return compute


def _reference_block(
    shard: Shard, a: np.ndarray, b: np.ndarray, op: ComparisonOp
) -> np.ndarray:
    """Serial popcount oracle for one shard's output block.

    Used for quarantine recompute and spot verification; bit-exact
    with every backend by the ABI contract.
    """
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    return bit_gemm_reference(a[m0:m1], b[n0:n1], op)


def execute_shard(
    compute: ShardCompute,
    shard: Shard,
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp,
    plan: BlockingPlan,
    c: np.ndarray,
    res: ResilienceContext,
) -> ShardProfile:
    """Run one shard under the active resilience context.

    The degradation ladder (docs/RESILIENCE.md): retryable faults
    are re-attempted under the policy's backoff budget; an
    exhausted budget quarantines the shard onto the serial
    reference recompute (bit-exact) or, with quarantine disabled,
    raises :class:`~repro.errors.ShardExecutionError`.  FATAL and
    DEGRADE errors propagate unchanged.  After a successful
    compute, sampled shards are spot-verified against the
    reference; a mismatch (e.g. an injected bit flip) adopts the
    reference block, so corrupt tiles never reach the caller.
    """
    obs = get_tracer()
    injector = res.injector
    start = time.perf_counter()
    attempt = 0
    retries = 0
    quarantined = False
    while True:
        try:
            injector.check_shard(shard.shard_id, attempt)
            block = compute(shard, a, b, op, plan)
            block = injector.corrupt_block(block, shard.shard_id)
            break
        except ReproError as exc:
            if classify(exc) is not Disposition.RETRY:
                raise
            if attempt + 1 < res.policy.max_attempts:
                retries += 1
                obs.counters.add(SHARD_RETRIES)
                res.policy.wait(retries - 1)
                attempt += 1
                continue
            if res.policy.quarantine:
                obs.counters.add(SHARDS_QUARANTINED)
                quarantined = True
                with obs.span(
                    "resilience.quarantine", shard=shard.shard_id
                ):
                    block = _reference_block(shard, a, b, op)
                break
            raise ShardExecutionError(
                f"shard {shard.shard_id} failed after {attempt + 1} "
                f"attempt(s): {exc}",
                shard_id=shard.shard_id,
            ) from exc
    verified = False
    mismatched = False
    if not quarantined and res.should_verify(shard.shard_id):
        verified = True
        obs.counters.add(TILES_VERIFIED)
        with obs.span("resilience.verify", shard=shard.shard_id):
            reference = _reference_block(shard, a, b, op)
        if not np.array_equal(block, reference):
            mismatched = True
            obs.counters.add(VERIFY_MISMATCHES)
            block = reference
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    c[m0:m1, n0:n1] = block
    if shard.mirror:
        # Transpose slot is strictly below the computed band grid:
        # disjoint from every computed slot, race-free.
        mm0, mm1 = shard.mirror_m_range
        mn0, mn1 = shard.mirror_n_range
        c[mm0:mm1, mn0:mn1] = block.T
        obs.counters.add(SHARDS_MIRRORED)
    return ShardProfile(
        shard_id=shard.shard_id,
        m_range=shard.m_range,
        n_range=shard.n_range,
        word_ops=shard.word_ops(plan.k),
        seconds=time.perf_counter() - start,
        mirrored=shard.mirror,
        retries=retries,
        quarantined=quarantined,
        verified=verified,
        mismatched=mismatched,
    )


# -- module-level conveniences ---------------------------------------------------

_ENGINES: dict[tuple[int, str, str], ParallelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(
    workers: int | None = None,
    backend: str = "auto",
    executor: str = "auto",
) -> ParallelEngine:
    """Process-wide engine per (workers, backend, executor).

    Every caller asking for the same worker count shares one pool --
    this is how the multi-GPU executor runs all simulated devices on a
    single pool instead of one per device, and how repeated process
    runs reuse one set of spawned workers.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    key = (workers, backend, executor)
    with _ENGINES_LOCK:
        engine = _ENGINES.get(key)
        if engine is None:
            engine = ParallelEngine(
                workers=workers, backend=backend, executor=executor
            )
            _ENGINES[key] = engine
        return engine


def bit_gemm_parallel(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    workers: int | None = None,
    plan: BlockingPlan | None = None,
    force_parallel: bool | None = None,
    symmetric: bool | None = None,
    backend: str = "auto",
    executor: str = "auto",
) -> np.ndarray:
    """One-shot parallel bit-GEMM (drop-in for the serial drivers)."""
    c, _ = get_engine(workers, backend, executor).run(
        a, b, op, plan=plan, force_parallel=force_parallel, symmetric=symmetric
    )
    return c


def recommended_workers() -> int:
    """Worker count the CLI default uses: all cores, capped sanely."""
    return max(1, min(16, os.cpu_count() or 1))
