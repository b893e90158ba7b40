"""The identity-search service: resident index + coalesced panels.

:class:`IdentityService` is the in-process API (the TCP front end in
:mod:`repro.serve.server` is a thin JSON shim over it).  Per request it
answers the same question as :class:`repro.core.streaming.\
StreamingIdentitySearch` -- the top-k nearest database profiles by
Hamming distance, first-seen tie-breaking -- and it is bit-exact
against that offline path by construction: distances come from the same
:class:`~repro.core.framework.SNPComparisonFramework` (exact integer
popcounts, so sharing a panel with other requests cannot change them)
and the per-query fold reuses the streaming top-k heap, offered rows in
the same global database order.

What serving adds over the offline path:

* **residency** -- each index segment is packed for the device once
  and cached by segment id; ``.snpbin`` shards written in the device's
  word width skip even that (their mmap'd bytes *are* the operand);
* **coalescing** -- concurrent requests share one query panel through
  :class:`repro.serve.batcher.CoalescingBatcher`, amortizing the
  ``m_r`` row padding and the per-batch database feed;
* **isolation** -- a batch that fails after the active retry policy is
  re-run one request at a time (``serve.solo_fallbacks``), so a
  poisoned query takes down itself, not its batch peers;
* **accounting** -- exact ``serve.*`` counters plus per-tenant
  p50/p99/QPS through :class:`repro.serve.metrics.TenantLedger`.

Batch snapshot semantics: the index snapshot is taken when the batch
*executes*, after the coalescing window closed over every member.  An
:meth:`append` that returned before a request was submitted is
therefore always visible to that request (the append barrier).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import PackedOperand

# The streaming fold is the bit-exactness oracle; reusing its heap type
# and fold (private by convention, stable within this codebase) keeps
# the tie-breaking rule defined in exactly one place.
from repro.core.streaming import Match, _QueryState
from repro.errors import (
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.gpu.arch import GPUArchitecture
from repro.observability.counters import (
    SERVE_APPENDED_PROFILES,
    SERVE_BATCH_ROWS,
    SERVE_BATCHES,
    SERVE_COALESCED_BATCHES,
    SERVE_DEADLINE_EXCEEDED,
    SERVE_QUERIES,
    SERVE_REQUEST_FAILURES,
    SERVE_SHED,
    SERVE_SOLO_FALLBACKS,
)
from repro.observability.tracer import get_tracer
from repro.resilience.deadline import Deadline
from repro.resilience.retry import call_with_retry
from repro.resilience.runtime import get_resilience
from repro.serve.batcher import CoalescingBatcher
from repro.serve.index import ProfileIndex, Segment
from repro.serve.metrics import TenantLedger
from repro.serve.overload import CircuitBreaker
from repro.util.validation import check_binary_matrix, check_k

__all__ = ["QueryRequest", "IdentityService"]


class QueryRequest:
    """One validated query set waiting for (or inside) a batch."""

    __slots__ = ("queries", "k", "tenant", "admitted_at", "deadline")

    def __init__(
        self,
        queries: np.ndarray,
        k: int,
        tenant: str,
        admitted_at: float,
        deadline: Deadline | None = None,
    ) -> None:
        self.queries = queries
        self.k = k
        self.tenant = tenant
        self.admitted_at = admitted_at
        self.deadline = deadline

    @property
    def n_queries(self) -> int:
        return int(self.queries.shape[0])


_T = TypeVar("_T")


def _with_retry(fn: "Callable[[], _T]") -> _T:
    """Run ``fn`` under the active resilience retry policy."""
    policy = get_resilience().policy
    if policy.max_attempts <= 1:
        return fn()
    return call_with_retry(fn, policy)


class IdentityService:
    """Long-lived top-k identity search over a :class:`ProfileIndex`.

    Parameters mirror :class:`StreamingIdentitySearch` where they
    overlap; ``window_s``/``max_batch_rows`` shape the coalescing
    window (see :mod:`repro.serve.batcher`).
    """

    #: Upper bound on per-request ``k`` (matches the streaming bound).
    MAX_K = 4096

    def __init__(
        self,
        index: ProfileIndex,
        k: int = 5,
        device: "str | GPUArchitecture" = "Titan V",
        workers: int | None = None,
        backend: str = "auto",
        window_s: float = 0.005,
        max_batch_rows: int = 512,
        pipeline_depth: int = 1,
        framework: SNPComparisonFramework | None = None,
        max_queue: int | None = None,
        max_inflight_rows: int | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.default_k = check_k("IdentityService: default k", k, self.MAX_K)
        self.index = index
        self.framework = framework or SNPComparisonFramework(
            device,
            Algorithm.FASTID_IDENTITY,
            workers=workers,
            backend=backend,
        )
        if self.framework.algorithm is not Algorithm.FASTID_IDENTITY:
            raise ConfigurationError(
                f"IdentityService: framework runs "
                f"{self.framework.algorithm.value!r}; identity search "
                f"requires 'fastid-identity'"
            )
        self.ledger = TenantLedger()
        self._packed: dict[int, PackedOperand] = {}
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, cooldown_s=1.0
        )
        self._batcher = CoalescingBatcher(
            self._execute_batch,
            window_s=window_s,
            max_rows=max_batch_rows,
            pipeline_depth=pipeline_depth,
            max_queue=max_queue,
            max_inflight_rows=max_inflight_rows,
        )
        self._closed = False
        self._draining = False

    # -- request admission -----------------------------------------------------

    @staticmethod
    def _as_deadline(
        deadline: "Deadline | float | None",
    ) -> Deadline | None:
        """Normalize a deadline argument (seconds budget or instance)."""
        if deadline is None or isinstance(deadline, Deadline):
            return deadline
        return Deadline.after(float(deadline))

    def _check_admission(self) -> None:
        """Drain and breaker gates, shared by submit/search_many."""
        if self._closed:
            raise ConfigurationError("IdentityService: service is closed")
        if self._draining:
            get_tracer().counters.add(SERVE_SHED)
            raise OverloadedError(
                "IdentityService: service is draining (shutting down)",
                retry_after_ms=0,
                reason="shutting_down",
            )
        if not self.breaker.allow():
            hint = self.breaker.retry_after_ms()
            get_tracer().counters.add(SERVE_SHED)
            raise OverloadedError(
                f"IdentityService: circuit breaker is "
                f"{self.breaker.state}; retry after {hint} ms",
                retry_after_ms=hint,
                reason="breaker_open",
            )

    def _validate(
        self,
        queries: np.ndarray,
        k: int | None,
        tenant: str,
        deadline: Deadline | None = None,
    ) -> QueryRequest:
        q = check_binary_matrix("IdentityService: queries", queries)
        if q.shape[0] == 0:
            raise DatasetError(
                "IdentityService: queries must be a non-empty 2-D matrix"
            )
        if q.shape[1] != self.index.n_bits:
            raise DatasetError(
                f"IdentityService: queries cover {q.shape[1]} sites, "
                f"index is {self.index.n_bits} sites wide"
            )
        kk = self.default_k if k is None else check_k("IdentityService: k", k, self.MAX_K)
        if not tenant:
            raise DatasetError("IdentityService: tenant must be non-empty")
        return QueryRequest(
            queries=np.ascontiguousarray(q, dtype=np.uint8),
            k=kk,
            tenant=tenant,
            admitted_at=time.perf_counter(),
            deadline=deadline,
        )

    def submit(
        self,
        queries: np.ndarray,
        k: int | None = None,
        tenant: str = "default",
        deadline: "Deadline | float | None" = None,
    ) -> "Future[list[list[Match]]]":
        """Admit one query set; the future resolves to per-query top-k.

        Validation (shape, dtype, binary-ness, ``k`` bounds) happens
        here, synchronously, so malformed requests fail loudly before
        ever touching a batch.  ``deadline`` is either a
        :class:`~repro.resilience.deadline.Deadline` or a relative
        budget in seconds; admission control may shed the request with
        :class:`~repro.errors.OverloadedError` (draining service, open
        breaker, or a full batcher queue).
        """
        self._check_admission()
        request = self._validate(
            queries, k, tenant, deadline=self._as_deadline(deadline)
        )
        get_tracer().counters.add(SERVE_QUERIES)
        return self._batcher.submit(
            request, rows=request.n_queries, deadline=request.deadline
        )

    def search(
        self,
        queries: np.ndarray,
        k: int | None = None,
        tenant: str = "default",
        deadline: "Deadline | float | None" = None,
    ) -> list[list[Match]]:
        """Blocking :meth:`submit` (waits through the coalescing window)."""
        return self.submit(
            queries, k=k, tenant=tenant, deadline=deadline
        ).result()

    def search_many(
        self,
        query_sets: Sequence[np.ndarray],
        k: int | None = None,
        tenant: str = "default",
    ) -> list[list[list[Match]]]:
        """Serve several query sets as **one forced batch**.

        Deterministic coalescing -- no timing window involved -- for
        tests, the serving bench's exact counters, and callers that
        already hold a burst.  Semantically identical to submitting them
        concurrently and having the window coalesce them.
        """
        self._check_admission()
        requests = [self._validate(q, k, tenant) for q in query_sets]
        if not requests:
            return []
        obs = get_tracer()
        for _ in requests:
            obs.counters.add(SERVE_QUERIES)
        outcomes = self._execute_batch(requests)
        results: list[list[list[Match]]] = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome)
        return results

    def append(self, profiles: np.ndarray) -> tuple[int, int]:
        """Append profiles to the index (see the append barrier note)."""
        start, stop = self.index.append(profiles)
        if stop > start:
            get_tracer().counters.add(SERVE_APPENDED_PROFILES, stop - start)
        return start, stop

    # -- execution -------------------------------------------------------------

    def _resident(self, segment: Segment) -> PackedOperand:
        """This segment's device operand, packed at most once per sid."""
        cached = self._packed.get(segment.sid)
        if cached is not None:
            return cached
        words = segment.packed_words(self.framework.arch.word_bits)
        if words is not None:
            # Zero-repack residency: the shard's bytes already are
            # pack_bits layout in the device word width; only the row
            # padding to m_r (zero rows, cropped after the GEMM) is new.
            m_r = self.framework.config.m_r
            padded = -(-segment.n_rows // m_r) * m_r
            if padded != words.shape[0]:
                full = np.zeros((padded, words.shape[1]), dtype=words.dtype)
                full[: words.shape[0]] = words
                words = full
            operand = PackedOperand(
                words=words, n_rows=segment.n_rows, n_bits=segment.n_bits
            )
        else:
            operand = self.framework.pack(segment.bits())
        self._packed[segment.sid] = operand
        return operand

    def _run_panel(
        self, requests: Sequence[QueryRequest], snapshot: tuple[Segment, ...]
    ) -> list[object]:
        """One coalesced panel pass: all requests vs every segment.

        State is local, so a retry of the whole call folds each row
        exactly once.  Query rows are stacked in admission order and
        demultiplexed by row range; database order is the snapshot's
        global order, which fixes tie-breaking identically to the
        streaming path.

        Deadlines are re-checked between segment folds: a request whose
        budget expires mid-panel gets a
        :class:`~repro.errors.DeadlineExceededError` *outcome* (not a
        raise, so batch peers are unaffected), and once every request
        has expired the remaining segments are skipped entirely.
        """
        stacked = (
            np.vstack([r.queries for r in requests])
            if len(requests) > 1
            else requests[0].queries
        )
        q_op = self.framework.pack(stacked)
        states = [
            [_QueryState(k=r.k) for _ in range(r.n_queries)] for r in requests
        ]
        expired: dict[int, DeadlineExceededError] = {}
        for segment in snapshot:
            for ri, request in enumerate(requests):
                if ri in expired:
                    continue
                dl = request.deadline
                if dl is not None and dl.expired:
                    expired[ri] = DeadlineExceededError(
                        "IdentityService: deadline expired mid-fold "
                        f"(overran by {dl.overrun() * 1e3:.1f} ms, "
                        f"{len(snapshot)} segments)",
                        overrun_s=dl.overrun(),
                    )
            if len(expired) == len(requests):
                break
            table, _report = self.framework.run_packed(
                q_op, self._resident(segment)
            )
            row = 0
            for ri, request in enumerate(requests):
                if ri not in expired:
                    rows = table[row : row + request.n_queries]
                    for state, distances in zip(states[ri], rows):
                        state.fold(distances, segment.base)
                row += request.n_queries
        return [
            expired[ri]
            if ri in expired
            else [state.matches() for state in per_request]
            for ri, per_request in enumerate(states)
        ]

    def _execute_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[object]:
        """Batcher callback: run one batch, degrade to solo on failure.

        Returns one outcome per request (results or exception
        instances); see the batcher's isolation contract.
        """
        obs = get_tracer()
        # Service-tier latency fault hook (chaos: ``latency`` plans): a
        # scheduled firing sleeps here, before packing, modeling a slow
        # backend that deadline checks must then absorb.
        get_resilience().injector.service_delay()
        # Reject already-expired requests before packing/compute.
        live: list[QueryRequest] = []
        by_request: dict[int, object] = {}
        for i, request in enumerate(requests):
            dl = request.deadline
            if dl is not None and dl.expired:
                obs.counters.add(SERVE_DEADLINE_EXCEEDED)
                by_request[i] = DeadlineExceededError(
                    "IdentityService: deadline expired before batch "
                    f"execution (overran by {dl.overrun() * 1e3:.1f} ms)",
                    overrun_s=dl.overrun(),
                )
            else:
                live.append(request)
        snapshot = self.index.snapshot()
        total_rows = sum(r.n_queries for r in live)
        live_outcomes: list[object] = []
        if live:
            obs.counters.add(SERVE_BATCHES)
            if len(live) >= 2:
                obs.counters.add(SERVE_COALESCED_BATCHES)
            obs.counters.add(SERVE_BATCH_ROWS, total_rows)
            with obs.span(
                "serve.batch", requests=len(live), rows=total_rows,
                segments=len(snapshot),
            ):
                try:
                    live_outcomes = list(
                        _with_retry(lambda: self._run_panel(live, snapshot))
                    )
                except Exception:
                    # Isolation rung: the coalesced panel failed after
                    # the retry policy; re-run each request alone so
                    # only the poisoned one (if any) fails its caller.
                    live_outcomes = []
                    for request in live:
                        obs.counters.add(SERVE_SOLO_FALLBACKS)
                        try:
                            solo = _with_retry(
                                lambda req=request: self._run_panel(
                                    [req], snapshot
                                )[0]
                            )
                            live_outcomes.append(solo)
                        except Exception as exc:
                            obs.counters.add(SERVE_REQUEST_FAILURES)
                            live_outcomes.append(exc)
            for outcome in live_outcomes:
                if isinstance(outcome, DeadlineExceededError):
                    obs.counters.add(SERVE_DEADLINE_EXCEEDED)
        live_iter = iter(live_outcomes)
        outcomes: list[object] = [
            by_request[i] if i in by_request else next(live_iter)
            for i in range(len(requests))
        ]
        # Breaker bookkeeping: deadline rejections are the client's
        # budget, not backend health -- only real failures count.
        backend_failed = any(
            isinstance(o, BaseException)
            and not isinstance(o, DeadlineExceededError)
            for o in outcomes
        )
        if backend_failed:
            self.breaker.record_failure()
        elif live:
            self.breaker.record_success()
        finished = time.perf_counter()
        for request, outcome in zip(requests, outcomes):
            self.ledger.record(
                request.tenant,
                rows=request.n_queries,
                seconds=finished - request.admitted_at,
                failed=isinstance(outcome, BaseException),
            )
        return outcomes

    # -- accounting ------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Service-level accounting: index shape + per-tenant SLOs.

        The exact work counters (``serve.*``, ``gemm.*``) live on the
        active tracer's registry; enable observability to collect them
        (see docs/OBSERVABILITY.md).
        """
        counters = get_tracer().counters.snapshot()
        return {
            "index": {
                "n_rows": self.index.n_rows,
                "n_bits": self.index.n_bits,
                "segments": self.index.n_segments,
            },
            "tenants": self.ledger.summary(),
            "counters": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith("serve.")
            },
        }

    def state(self) -> str:
        """One-word health state: ``ready``, ``draining`` or ``tripped``."""
        if self._closed or self._draining:
            return "draining"
        if self.breaker.state != "closed":
            return "tripped"
        return "ready"

    def health(self) -> dict[str, object]:
        """Health snapshot for the ``health`` protocol verb."""
        return {
            "state": self.state(),
            "draining": self._draining or self._closed,
            "breaker": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "queued_requests": self._batcher.queued_requests,
            "inflight_rows": self._batcher.inflight_rows,
            "index_rows": self.index.n_rows,
        }

    def drain(self, timeout: float | None = 10.0) -> bool:
        """Graceful drain: stop admitting, finish what is in flight.

        New submissions are shed with ``reason="shutting_down"`` from
        the moment this is called.  Returns ``True`` once nothing is
        queued or executing, ``False`` on timeout.
        """
        self._draining = True
        return self._batcher.wait_idle(timeout=timeout)

    def close(self) -> None:
        """Drain in-flight batches and stop the batcher."""
        if self._closed:
            return
        self._draining = True
        self._closed = True
        self._batcher.close()

    def __enter__(self) -> "IdentityService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
