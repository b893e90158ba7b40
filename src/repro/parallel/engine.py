"""Parallel sharded execution of the functional bit-GEMM.

The host-side counterpart of the paper's core-grid parallelism: the
output C is partitioned into shards (:mod:`repro.parallel.plan`), each
shard runs on a ``concurrent.futures`` thread pool -- the NumPy
bitwise/popcount/GEMM kernels release the GIL, so shards genuinely
overlap on multicore hosts -- and every shard writes its disjoint
block of the shared output array (the partial-``gamma`` reduction is
race-free by construction).

The engine has two axes:

* **Backend** -- every shard runs one kernel-ABI panel call,
  ``backend.bit_gemm_panel(a[m0:m1], b[n0:n1], op)``
  (:mod:`repro.kernels`): ``blas`` (float32 BLAS identities),
  ``numpy`` (the reference word-walk) or the compiled ``cnative``
  panel.  ``backend="auto"`` resolves in one place,
  :func:`repro.kernels.pick_backend`: the ``REPRO_BACKEND``
  environment variable, else ``cnative`` once loaded, else ``numpy``
  when the shorter operand has at most
  :data:`~repro.kernels.NUMPY_ROW_LIMIT` rows and ``blas`` for
  anything larger.  A named backend runs as named.
* **Plan shape** -- full or triangular, following the operands.  When
  both are the *same* packed matrix (``same_operand``) and the op is
  symmetric, the output satisfies ``C == C.T`` and a sharded run takes
  a triangular shard plan
  (:meth:`~repro.parallel.plan.ShardPlan.triangular`):
  only diagonal and upper-triangular shards are computed; each
  off-diagonal shard also reflects its block into the transpose slot
  (``mirror=True``, counted by :data:`SHARDS_MIRRORED`).  On two
  threads it beats the full plan at LD's table sizes.

Every run counts one :data:`GEMM_CALLS` and ``m * n * k``
:data:`GEMM_WORD_OPS` -- the product the problem defines -- whatever
backend, worker count or plan shape computed it; the work a
triangular plan actually does is :attr:`ParallelReport.total_word_ops`.

Problems below :data:`PARALLEL_CROSSOVER_OPS` -- or ``workers=1`` --
run as a one-shard plan on the caller's thread, whose block becomes
the table.  Serial and threaded runs execute through the same
:func:`execute_shard` retry/quarantine/verify ladder, so results are
bit-exact across both and fault plans address shard 0 either way.

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
from typing import Callable

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import (
    HOST_BLOCKING,
    bit_gemm_reference,
    host_plan,
    same_operand,
)
from repro.blis.microkernel import ComparisonOp
from repro.errors import (
    PackingError,
    ReproError,
    ShardExecutionError,
)
from repro.kernels import (
    KernelBackend,
    check_panel_operands,
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
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import Disposition, classify
from repro.resilience.runtime import ResilienceContext, get_resilience
from repro.util.validation import check_workers

#: Shard kernel contract: (shard, a, b, op, plan) -> output block.
ShardCompute = Callable[[Shard, np.ndarray, np.ndarray, ComparisonOp, BlockingPlan], np.ndarray]

__all__ = [
    "PARALLEL_CROSSOVER_OPS",
    "ShardProfile",
    "ParallelReport",
    "ParallelEngine",
    "bit_gemm_parallel",
    "execute_shard",
    "get_engine",
    "shard_compute",
]

#: Problems below this many packed-word operations run as one shard
#: on the caller's thread: pool dispatch costs more than it saves on
#: small tables.
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

    ``backend`` names the kernel backend that computed the table;
    ``shard_plan`` is the plan it ran (one shard for a serial run).
    ``metrics`` carries the run-scoped observability delta (counters
    plus span aggregates) when tracing was enabled; ``None`` otherwise.
    ``resilience`` carries the fault-tolerance accounting when a
    resilience context was active during the run; ``None`` otherwise.
    """

    workers: int
    used_parallel: bool
    seconds: float
    backend: str
    shard_plan: ShardPlan
    shard_profiles: list[ShardProfile] = field(default_factory=list)
    metrics: MetricsReport | None = None
    symmetric: bool = False
    resilience: ResilienceReport | None = None

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
    """Shards one bit-GEMM across a host thread pool.

    Parameters
    ----------
    workers:
        Pool threads.  Default: ``os.cpu_count()``.  ``1`` always runs
        one shard on the caller's thread; more run problems of at least
        :data:`PARALLEL_CROSSOVER_OPS` word-ops on the pool.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`) every shard calls.
        ``"auto"`` follows :func:`repro.kernels.pick_backend`: the
        ``REPRO_BACKEND`` environment variable, then the shape rule.

    One engine owns one lazily created pool; it is reused across runs
    and across callers -- :func:`get_engine` hands the same engine to
    every simulated device, so a multi-GPU run shares a single pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "auto",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        check_workers("ParallelEngine: workers", workers)
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.workers = workers
        self.backend = backend
        self._pool: ThreadPoolExecutor | None = None
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

    def shutdown(self) -> None:
        """Release the pool (a later run recreates it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- entry point -----------------------------------------------------------

    def run(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
        plan: BlockingPlan | None = None,
        force_parallel: bool | None = None,
    ) -> tuple[np.ndarray, ParallelReport]:
        """Compute ``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))``.

        Returns the int64 table and a :class:`ParallelReport`.
        ``force_parallel`` overrides the crossover heuristic (tests and
        benchmarks use it); ``plan`` pins the blocking the shard plan
        derives from.  A sharded run of the same packed matrix on both
        sides with a symmetric op takes the triangular plan.
        """
        a, b, op = check_panel_operands(a, b, op)
        m, k = a.shape
        n = b.shape[0]
        symmetric = op.is_symmetric and same_operand(a, b)
        if plan is None:
            plan = host_plan(m, n, k)
        if (plan.m, plan.n, plan.k) != (m, n, k):
            raise PackingError(
                f"ParallelEngine.run: plan extents {(plan.m, plan.n, plan.k)} "
                f"do not match operands {(m, n, k)}"
            )
        use_parallel = (
            self.workers > 1 and plan.total_ops() >= PARALLEL_CROSSOVER_OPS
            if force_parallel is None
            else force_parallel and self.workers >= 1
        )
        if use_parallel:
            if symmetric:
                plan = _gram_blocking(plan)
            shard_plan = ShardPlan.from_blocking(
                plan, self.workers, symmetric=symmetric
            )
        else:
            shard_plan = ShardPlan.single(plan)
        name = pick_backend(m, n, k, self.backend)
        compute = shard_compute(get_backend(name))
        obs = get_tracer()
        res = get_resilience()
        counters_before = obs.counters.snapshot() if obs.enabled else None
        spans_before = obs.n_spans()
        events_before = res.injector.n_fired()
        # One logical GEMM however many shards execute it.
        obs.counters.add(GEMM_CALLS)
        obs.counters.add(GEMM_WORD_OPS, m * n * k)
        start = time.perf_counter()
        with obs.span(
            "parallel.run", m=m, n=n, k=k, workers=self.workers
        ).set(parallel=use_parallel, symmetric=symmetric):
            if use_parallel:
                c, profiles = self._run_sharded(
                    shard_plan, compute, a, b, op, plan, res
                )
            else:
                # The one shard covers the whole output: its block is
                # the table.
                c, profile = execute_shard(
                    compute, shard_plan.shards[0], a, b, op, plan, res
                )
                profiles = [profile]
        report = ParallelReport(
            workers=self.workers if use_parallel else 1,
            used_parallel=use_parallel,
            seconds=time.perf_counter() - start,
            backend=name,
            shard_plan=shard_plan,
            shard_profiles=profiles,
            symmetric=symmetric,
        )
        obs.counters.add(HOST_ENGINE_SECONDS, report.seconds)
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        if res.active:
            events = tuple(res.injector.fired()[events_before:])
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
                events=events,
            )
        return c, report

    # -- sharded execution ---------------------------------------------------------

    def _run_sharded(
        self,
        shard_plan: ShardPlan,
        compute: ShardCompute,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        res: ResilienceContext,
    ) -> tuple[np.ndarray, list[ShardProfile]]:
        c = np.zeros((plan.m, plan.n), dtype=np.int64)

        def run_shard(shard: Shard) -> ShardProfile:
            block, profile = execute_shard(compute, shard, a, b, op, plan, res)
            _place(c, shard, block)
            return profile

        if shard_plan.n_shards <= 1:
            return c, [run_shard(shard) for shard in shard_plan.shards]
        pool = self._get_pool()
        futures = [pool.submit(run_shard, shard) for shard in shard_plan.shards]
        return c, [f.result() for f in futures]


# -- shard execution ---------------------------------------------------------------


def shard_compute(backend: KernelBackend) -> ShardCompute:
    """The shard kernel every run executes: one backend panel call.

    Each call counts one ``SHARDS_EXECUTED`` whichever backend runs it,
    so the deterministic counters the regression gate compares do not
    depend on the backend.
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
    res: ResilienceContext,
) -> tuple[np.ndarray, ShardProfile]:
    """Run one shard under the active resilience context.

    Returns the shard's output block and its profile.  The degradation
    ladder (docs/RESILIENCE.md): retryable faults are re-attempted
    under the policy's backoff budget; an exhausted budget quarantines
    the shard onto the serial reference recompute (bit-exact) or, with
    quarantine disabled, raises
    :class:`~repro.errors.ShardExecutionError`.  FATAL and DEGRADE
    errors propagate unchanged.  After a successful compute, sampled
    shards are spot-verified against the reference; a mismatch (e.g.
    an injected bit flip) adopts the reference block, so corrupt tiles
    never reach the caller.
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
    return block, ShardProfile(
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


def _place(c: np.ndarray, shard: Shard, block: np.ndarray) -> None:
    """Write one shard's block, and its mirror, into the shared table."""
    m0, m1 = shard.m_range
    n0, n1 = shard.n_range
    c[m0:m1, n0:n1] = block
    if shard.mirror:
        # Transpose slot is strictly below the computed band grid:
        # disjoint from every computed slot, race-free.
        mm0, mm1 = shard.mirror_m_range
        mn0, mn1 = shard.mirror_n_range
        c[mm0:mm1, mn0:mn1] = block.T
        get_tracer().counters.add(SHARDS_MIRRORED)


# -- module-level conveniences ---------------------------------------------------

_ENGINES: dict[tuple[int, str], ParallelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(
    workers: int | None = None,
    backend: str = "auto",
) -> ParallelEngine:
    """Process-wide engine per (workers, backend).

    Every caller asking for the same worker count shares one pool --
    this is how the multi-GPU executor runs all simulated devices on a
    single pool instead of one per device.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    key = (workers, backend)
    with _ENGINES_LOCK:
        engine = _ENGINES.get(key)
        if engine is None:
            engine = ParallelEngine(workers=workers, backend=backend)
            _ENGINES[key] = engine
        return engine


def bit_gemm_parallel(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    workers: int | None = None,
    plan: BlockingPlan | None = None,
    force_parallel: bool | None = None,
    backend: str = "auto",
) -> np.ndarray:
    """One-shot bit-GEMM through the engine (``workers=1``: one shard)."""
    c, _ = get_engine(workers, backend).run(
        a, b, op, plan=plan, force_parallel=force_parallel
    )
    return c


def recommended_workers() -> int:
    """Worker count the CLI default uses: all cores, capped sanely."""
    return max(1, min(16, os.cpu_count() or 1))
