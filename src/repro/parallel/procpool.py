"""Process-level shard execution with shared-memory packed panels.

The thread pool in :mod:`repro.parallel.engine` scales until the
Python-side orchestration (shard dispatch, NumPy dispatch overhead)
serializes on the GIL -- with the compiled ``cnative``/``numba``
backends the kernels themselves are fast enough that this ceiling
arrives at a handful of cores.  :class:`ProcessShardExecutor` is the
next tier: the same :class:`~repro.parallel.plan.ShardPlan` shards,
executed by a pool of worker *processes*, each running the identical
:func:`~repro.parallel.engine.execute_shard` retry/quarantine/verify
ladder the threaded and serial paths use.

**Operand transport is zero-copy where it can be.**  Packed operands
are published once per run:

* file-backed operands (``.snpbin`` memmaps from
  :class:`~repro.io_stream.format.PackedDatasetReader`, including
  contiguous row slices) are described by ``(path, offset, shape,
  dtype)`` and re-mapped read-only in each worker via
  :func:`~repro.io_stream.format.map_packed_words` -- no bytes cross
  the pipe;
* in-memory operands are copied once into
  :mod:`multiprocessing.shared_memory` segments that every worker
  attaches; self-comparisons publish a single segment for both sides.

The int64 output C lives in one preallocated shared segment; every
shard writes its disjoint block (and, in Gram mode, its transpose
mirror slot) directly, so results need no per-shard pickling either.

**Scheduling and worker loss.**  Every worker has its own task queue,
and the parent hands shards out: one to each live worker first, then
one more, then a fresh shard whenever a worker reports one done
(dynamic load balancing, at most :data:`_PREFETCH` held per worker).
A worker's ``done`` message carries the
:class:`~repro.parallel.engine.ShardProfile`, the shard's
observability-counter delta, and any injector events; the parent
merges counter deltas into its own tracer, so the deterministic
counters the regression gate compares are identical to a threaded
run's.  Because the parent knows which shards each worker holds, a
worker death loses nothing: the parent re-queues exactly the dead
worker's unfinished shards onto the survivors (block writes are
idempotent: a re-executed shard overwrites the same disjoint slots),
counts :data:`~repro.observability.counters.WORKERS_LOST` (plus
:data:`~repro.observability.counters.FAULTS_INJECTED` only when the
death was scheduled by the fault plan), and surfaces a ``worker-lost``
event in the run's :class:`~repro.resilience.report.ResilienceReport`.
Since each live worker is handed its first shard directly, a scheduled
``worker-lost@W`` fires deterministically whenever the plan has at
least as many shards as there are workers.  Only the first ``done``
per shard merges counters, so re-execution never double-counts.  Runs
on one executor are serialized behind a run lock: the pool's single
result queue admits one consumer at a time, and concurrent
``engine.run`` calls on a shared engine queue up rather than stealing
each other's messages.

**Start method.**  Workers use the ``spawn`` start method by default
(portable to macOS/Windows semantics, safe with compiled backends and
the parent's threads); ``REPRO_MP_START`` selects ``fork``/
``forkserver`` where supported.  Shared-memory segments are unlinked
by the parent at the end of every run and workers attach without
resource-tracker registration (``track=False`` on Python 3.13+, an
explicit unregister before that), so no segment outlives its run --
the worker-loss chaos test asserts exactly that.

See ``docs/DISTRIBUTED.md`` for the executor-tier overview.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.gemm import same_operand
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import ConfigurationError, ShardExecutionError
from repro.io_stream.format import map_packed_words, packed_words_ref
from repro.kernels import backend_available, backend_fingerprint, get_backend
from repro.observability.counters import (
    FAULTS_INJECTED,
    WORKERS_LOST,
    CounterRegistry,
)
from repro.observability.tracer import get_tracer
from repro.parallel.plan import Shard, ShardPlan
from repro.resilience.faults import (
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FiredFault,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import ResilienceContext
from repro.util.validation import check_workers

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from repro.parallel.engine import ShardProfile

__all__ = [
    "REPRO_MP_START_ENV",
    "OperandRef",
    "ProcessRunResult",
    "ProcessShardExecutor",
]

#: Environment variable selecting the multiprocessing start method for
#: worker processes (``spawn`` -- the portable default -- ``fork`` or
#: ``forkserver``).  CI pins ``spawn`` explicitly so the macOS/Windows
#: semantics are what every leg exercises.
REPRO_MP_START_ENV = "REPRO_MP_START"

_DEFAULT_START_METHOD = "spawn"

#: Seconds the parent waits on the result queue before checking worker
#: liveness (worker-loss detection latency is bounded by this).
_POLL_SECONDS = 0.05

#: Exit code a worker uses when an injected ``worker-lost`` fault kills
#: it (the parent counts only such scheduled deaths as injected faults;
#: a genuine crash is a loss, not an injection).
_KILLED_EXIT_CODE = 86

#: Shards the parent keeps queued per worker: the one it computes plus
#: one more, so a worker never idles waiting for the parent's reply.
_PREFETCH = 2

#: Run states one worker keeps attached at a time.  Each state holds
#: shared-memory attachments, so the cache is small; an evicted state
#: is rebuilt from the next task's embedded run spec if needed.
_WORKER_STATE_CACHE = 4


def _resolve_start_method() -> str:
    """The start method worker processes launch under."""
    name = os.environ.get(REPRO_MP_START_ENV, "").strip() or _DEFAULT_START_METHOD
    if name not in ("spawn", "fork", "forkserver"):
        raise ConfigurationError(
            f"{REPRO_MP_START_ENV}: unknown start method {name!r} "
            f"(valid: spawn, fork, forkserver)"
        )
    return name


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker registration.

    Before Python 3.13 a child that merely *attaches* a segment
    registers it with the resource tracker -- and spawned workers share
    the *parent's* tracker process, so the duplicate registration (and
    any attempt to unregister it afterwards) corrupts the tracker's
    book-keeping for a segment the parent still owns.  ``track=False``
    (3.13+) or suppressing registration around the attach keeps
    ownership where it belongs: the parent creates, the parent unlinks.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


@dataclass(frozen=True)
class OperandRef:
    """How one packed operand reaches the workers.

    ``kind="mmap"``: ``name`` is a file path; workers map ``shape``
    words of ``dtype`` read-only at byte ``offset`` (zero-copy, no
    operand bytes ever cross the task pipe).  ``kind="shm"``: ``name``
    is a :mod:`multiprocessing.shared_memory` segment the parent
    filled once; workers attach and wrap it.
    """

    kind: str  # "mmap" | "shm"
    name: str
    shape: tuple[int, int]
    dtype: str
    offset: int = 0


@dataclass
class ProcessRunResult:
    """What one process-pool dispatch produced (parent side)."""

    c: np.ndarray
    profiles: list["ShardProfile"]
    worker_events: tuple[FiredFault, ...]
    workers_lost: int


# -- worker side -----------------------------------------------------------------


class _RunState:
    """One run's attachments and execution context inside a worker."""

    def __init__(self, spec: dict[str, Any]) -> None:
        from repro.observability.tracer import Tracer, set_tracer
        from repro.parallel.engine import shard_compute

        # A fresh per-run tracer: counters feed the per-shard deltas
        # shipped back to the parent, and re-installing per run bounds
        # span accumulation over a long-lived pool.
        self.tracer = Tracer()
        set_tracer(self.tracer)
        self._shm: list[shared_memory.SharedMemory] = []
        self.a = self._attach_operand(spec["a"])
        b_ref = spec["b"]
        self.b = self.a if b_ref is None else self._attach_operand(b_ref)
        c_shm = _attach_shm(spec["c_name"])
        self._shm.append(c_shm)
        self.c: np.ndarray | None = np.ndarray(
            tuple(spec["c_shape"]), dtype=np.int64, buffer=c_shm.buf
        )
        self.op: ComparisonOp = get_microkernel(spec["op"]).op
        self.plan: BlockingPlan = spec["plan"]
        backend: str = spec["backend"]
        if spec["fingerprint"] != backend_fingerprint() or not backend_available(
            backend
        ):
            # Per-process backend resolution: this worker's view of the
            # tunable backend set differs from the parent's (partial
            # install, version skew).  Degrade to ``blas`` -- bit-exact
            # by the ABI contract, and the word-op counters are
            # backend-invariant so accounting holds.
            backend = "blas"
        self.compute = shard_compute(get_backend(backend))
        fault_spec = spec["fault_spec"]
        injector: FaultInjector | Any = NULL_INJECTOR
        if fault_spec:
            injector = FaultInjector(
                FaultPlan.from_spec(fault_spec, slow_delay_s=spec["slow_delay_s"])
            )
        self.injector = injector
        policy_fields: dict[str, Any] = spec["policy"]
        self.res = ResilienceContext(
            injector=injector,
            policy=RetryPolicy(**policy_fields),
            verify_sample=spec["verify_sample"],
            verify_seed=spec["verify_seed"],
        )

    def _attach_operand(self, ref: OperandRef) -> np.ndarray:
        if ref.kind == "mmap":
            return map_packed_words(ref.name, ref.offset, ref.shape, ref.dtype)
        shm = _attach_shm(ref.name)
        self._shm.append(shm)
        return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)

    def execute(self, shard: Shard) -> "ShardProfile":
        from repro.parallel.engine import execute_shard

        assert self.c is not None
        return execute_shard(
            self.compute, shard, self.a, self.b, self.op, self.plan,
            self.c, self.res,
        )

    def close(self) -> None:
        # Views must drop before the buffers close.
        self.a = self.b = np.zeros((0, 0), dtype=np.uint64)
        self.c = None
        for shm in self._shm:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
        self._shm = []


def _worker_main(worker_id: int, task_q: Any, result_q: Any) -> None:
    """Worker process loop: execute, report; die on command."""
    states: dict[int, _RunState] = {}
    order: list[int] = []
    while True:
        msg = task_q.get()
        if msg[0] == "stop":
            break
        _, run_id, shard, spec = msg
        try:
            state = states.get(run_id)
            if state is None:
                state = _RunState(spec)
                states[run_id] = state
                order.append(run_id)
                while len(order) > _WORKER_STATE_CACHE:
                    states.pop(order.pop(0)).close()
            if state.injector.check_worker(worker_id):
                # Injected worker loss: flush the queue feeder so the
                # results already sent reach the parent, then die like
                # a crash.
                result_q.close()
                result_q.join_thread()
                os._exit(_KILLED_EXIT_CODE)
            before = state.tracer.counters.snapshot()
            events_before = state.injector.n_fired()
            profile = state.execute(shard)
            delta = CounterRegistry.diff(
                before, state.tracer.counters.snapshot()
            )
            events = tuple(state.injector.fired()[events_before:])
            result_q.put(
                ("done", worker_id, run_id, shard.shard_id, profile, delta,
                 events)
            )
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            payload: bytes | None
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = None
            result_q.put(
                ("error", worker_id, run_id, shard.shard_id, payload,
                 f"{type(exc).__name__}: {exc}")
            )
    for state in states.values():
        state.close()


# -- parent side -----------------------------------------------------------------


class ProcessShardExecutor:
    """A persistent pool of shard-worker processes.

    One executor is owned by one :class:`~repro.parallel.engine.ParallelEngine`
    and reused across runs, so the (spawn-method) process startup cost
    is paid once, not per GEMM.  ``execute`` publishes the operands,
    dispatches every shard of a :class:`~repro.parallel.plan.ShardPlan`,
    merges worker counter deltas into the parent tracer, and returns
    the filled output with per-shard profiles.  Dead workers are
    respawned at the start of the *next* run; within a run their shards
    fail over to the survivors.
    """

    def __init__(self, workers: int) -> None:
        try:
            check_workers("ProcessShardExecutor: workers", workers)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        self.workers = workers
        self._ctx: "BaseContext | None" = None
        self._procs: dict[int, "BaseProcess"] = {}
        self._task_qs: dict[int, Any] = {}
        self._result_q: Any = None
        self._run_counter = 0
        self._lock = threading.Lock()

    # -- pool lifecycle --------------------------------------------------------

    def _context(self) -> "BaseContext":
        if self._ctx is None:
            self._ctx = get_context(_resolve_start_method())
        return self._ctx

    def _ensure_workers(self) -> None:
        ctx = self._context()
        if self._result_q is None:
            self._result_q = ctx.Queue()
        for worker_id in range(self.workers):
            proc = self._procs.get(worker_id)
            if proc is not None and proc.is_alive():
                continue
            if proc is not None:
                # A dead worker's backlog dies with its queue.
                proc.join(timeout=1.0)
                _close_queue(self._task_qs[worker_id])
            task_q = ctx.Queue()
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, task_q, self._result_q),
                name=f"repro-shard-proc-{worker_id}",
                daemon=True,
            )
            proc.start()
            self._procs[worker_id] = proc
            self._task_qs[worker_id] = task_q

    def shutdown(self) -> None:
        """Stop every worker and release the queues."""
        with self._lock:
            if not self._procs:
                return
            for worker_id, proc in self._procs.items():
                if proc.is_alive():
                    self._task_qs[worker_id].put(("stop",))
            for proc in self._procs.values():
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._procs = {}
            for q in (*self._task_qs.values(), self._result_q):
                _close_queue(q)
            self._task_qs = {}
            self._result_q = None

    @property
    def alive_workers(self) -> int:
        return sum(1 for p in self._procs.values() if p.is_alive())

    # -- operand publication ---------------------------------------------------

    def _publish_operand(
        self, arr: np.ndarray, handles: list[shared_memory.SharedMemory]
    ) -> OperandRef:
        ref = packed_words_ref(arr)
        if ref is not None:
            path, offset, shape, dtype = ref
            return OperandRef(
                kind="mmap", name=path, shape=shape, dtype=dtype, offset=offset
            )
        contiguous = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, contiguous.nbytes)
        )
        handles.append(shm)
        view: np.ndarray = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=shm.buf
        )
        view[:] = contiguous
        del view
        return OperandRef(
            kind="shm",
            name=shm.name,
            shape=(int(arr.shape[0]), int(arr.shape[1])),
            dtype=contiguous.dtype.str,
        )

    # -- dispatch --------------------------------------------------------------

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        shard_plan: ShardPlan,
        backend_name: str,
        res: ResilienceContext,
    ) -> ProcessRunResult:
        """Run every shard of ``shard_plan`` across the worker pool.

        Runs are serialized: the pool has one shared result queue, and
        a second concurrent consumer would steal (and discard as stale)
        the first run's done messages, hanging both.  Concurrent
        callers -- :func:`~repro.parallel.engine.get_engine` shares
        engines process-wide, and pipelined serving dispatches batches
        concurrently -- queue up on the run lock instead.
        """
        with self._lock:
            self._ensure_workers()
            self._run_counter += 1
            run_id = self._run_counter
            handles: list[shared_memory.SharedMemory] = []
            try:
                return self._execute_locked(
                    run_id, handles, a, b, op, plan, shard_plan,
                    backend_name, res,
                )
            finally:
                for shm in handles:
                    try:
                        shm.close()
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass

    def _build_spec(
        self,
        run_id: int,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        backend_name: str,
        res: ResilienceContext,
        handles: list[shared_memory.SharedMemory],
    ) -> tuple[dict[str, Any], np.ndarray]:
        ref_a = self._publish_operand(a, handles)
        ref_b = None if same_operand(a, b) else self._publish_operand(b, handles)
        c_shm = shared_memory.SharedMemory(
            create=True, size=max(1, plan.m * plan.n * 8)
        )
        handles.append(c_shm)
        c_view: np.ndarray = np.ndarray(
            (plan.m, plan.n), dtype=np.int64, buffer=c_shm.buf
        )
        c_view[:] = 0
        injector = res.injector
        fault_spec = (
            injector.plan.to_spec()
            if isinstance(injector, FaultInjector) and injector.plan.specs
            else None
        )
        slow_delay_s = (
            injector.plan.slow_delay_s
            if isinstance(injector, FaultInjector)
            else 0.0
        )
        policy = res.policy
        spec: dict[str, Any] = {
            "run_id": run_id,
            "a": ref_a,
            "b": ref_b,
            "c_name": c_shm.name,
            "c_shape": (plan.m, plan.n),
            "op": op.value,
            "plan": plan,
            "backend": backend_name,
            "fingerprint": backend_fingerprint(),
            "fault_spec": fault_spec,
            "slow_delay_s": slow_delay_s,
            "policy": {
                "max_attempts": policy.max_attempts,
                "base_delay_s": policy.base_delay_s,
                "multiplier": policy.multiplier,
                "max_delay_s": policy.max_delay_s,
                "jitter": policy.jitter,
                "seed": policy.seed,
                "quarantine": policy.quarantine,
            },
            "verify_sample": res.verify_sample,
            "verify_seed": res.verify_seed,
        }
        return spec, c_view

    def _execute_locked(
        self,
        run_id: int,
        handles: list[shared_memory.SharedMemory],
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp,
        plan: BlockingPlan,
        shard_plan: ShardPlan,
        backend_name: str,
        res: ResilienceContext,
    ) -> ProcessRunResult:
        spec, c_view = self._build_spec(
            run_id, a, b, op, plan, backend_name, res, handles,
        )
        shards = {shard.shard_id: shard for shard in shard_plan.shards}
        pending = deque(shard_plan.shards)
        # Shards handed to each worker and not yet reported done.
        held: dict[int, set[int]] = {worker_id: set() for worker_id in self._procs}
        obs = get_tracer()
        profiles: dict[int, "ShardProfile"] = {}
        dead: set[int] = set()
        events: list[FiredFault] = []
        workers_lost = 0

        def dispatch() -> None:
            """Top every live worker up to ``_PREFETCH`` held shards.

            Round-robin, so every live worker receives its first shard
            before any worker receives a second.
            """
            while pending:
                open_workers = [
                    worker_id for worker_id, shard_ids in held.items()
                    if worker_id not in dead and len(shard_ids) < _PREFETCH
                ]
                if not open_workers:
                    return
                for worker_id in open_workers:
                    if not pending:
                        return
                    shard = pending.popleft()
                    held[worker_id].add(shard.shard_id)
                    self._task_qs[worker_id].put(("shard", run_id, shard, spec))

        def reap() -> int:
            """Detect dead workers; re-queue the shards they held."""
            lost = 0
            for worker_id, proc in self._procs.items():
                if worker_id in dead or proc.is_alive():
                    continue
                dead.add(worker_id)
                lost += 1
                events.append(
                    FiredFault(
                        kind="worker-lost", target=worker_id, attempt=0,
                        site="procpool",
                    )
                )
                obs.counters.add(WORKERS_LOST)
                if proc.exitcode == _KILLED_EXIT_CODE:
                    # Only a scheduled (injected) death counts as an
                    # injected fault; a genuine crash is a loss, not an
                    # injection, and must not skew the deterministic
                    # fired/injected accounting CI compares.
                    obs.counters.add(FAULTS_INJECTED)
                pending.extendleft(
                    shards[shard_id]
                    for shard_id in sorted(held[worker_id], reverse=True)
                    if shard_id not in profiles
                )
                held[worker_id].clear()
            if len(dead) >= len(self._procs):
                raise ShardExecutionError(
                    f"process executor: all {len(self._procs)} worker "
                    f"processes were lost",
                    shard_id=-1,
                )
            return lost

        dispatch()
        while len(profiles) < len(shards):
            try:
                msg = self._result_q.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                lost = reap()
                if lost:
                    workers_lost += lost
                    dispatch()
                continue
            kind, worker_id, msg_run, shard_id = msg[:4]
            if msg_run != run_id:
                continue  # stale message from an aborted earlier run
            held[worker_id].discard(shard_id)
            if kind == "done":
                profile, delta, shard_events = msg[4:]
                if shard_id not in profiles:  # first report wins
                    profiles[shard_id] = profile
                    for name, value in delta.items():
                        obs.counters.add(name, value)
                    events.extend(shard_events)
                dispatch()
            elif kind == "error":
                payload, message = msg[4:]
                if payload is not None:
                    try:
                        raise pickle.loads(payload)
                    except ShardExecutionError:
                        raise
                    except Exception as exc:
                        if isinstance(exc, (pickle.UnpicklingError, EOFError)):
                            pass  # fall through to the generic raise
                        else:
                            raise
                raise ShardExecutionError(
                    f"shard {shard_id} failed in worker process "
                    f"{worker_id}: {message}",
                    shard_id=shard_id,
                )

        c = np.array(c_view, copy=True)
        del c_view
        ordered = [profiles[shard_id] for shard_id in sorted(profiles)]
        return ProcessRunResult(
            c=c,
            profiles=ordered,
            worker_events=tuple(events),
            workers_lost=workers_lost,
        )


def _close_queue(q: Any) -> None:
    """Release a queue without waiting on its feeder thread."""
    q.close()
    q.cancel_join_thread()
