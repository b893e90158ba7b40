"""Request coalescing: merge concurrent queries into one GEMM panel.

The economics: :func:`repro.core.packing.pack_operand` pads the query
side of every panel up to the device's register tile ``m_r``, and the
engine's exact ``gemm.popc_word_ops`` accounting charges the padded
rows.  A single-profile query therefore costs ``m_r * n * k_words``
word-ops on its own panel but only ``1 * n * k_words`` when it shares a
panel with ``m_r - 1`` (or more) concurrent peers -- plus the database
side of the panel is packed, cached and fed once per *batch* instead of
once per *request*.  Coalescing turns concurrent traffic into that
shared panel, the same keep-the-units-fed motif as Beyer & Bientinesi's
overlapped feeds (PAPERS.md).

Mechanics: ``submit`` enqueues a request and returns a
:class:`concurrent.futures.Future` immediately (the asyncio front end
in :mod:`repro.serve.server` awaits it via ``asyncio.wrap_future``).
One dispatcher thread waits for work, cuts whatever is queued (in
admission order, up to ``max_rows`` query rows), runs that batch and
repeats.  An idle service therefore dispatches a lone request at once;
requests that arrive while a batch runs wait in the bounded queue and
are cut together as the next one.  A request cancelled while queued is
dropped at the cut.

Overload protection: admission is *bounded*.  ``max_queue`` caps queued
requests and ``max_inflight_rows`` caps query rows that are queued or
executing; past either bound :meth:`submit` sheds with
:class:`~repro.errors.OverloadedError` (counted in ``serve.shed``)
instead of queueing unboundedly.  Its ``retry_after_ms`` hint is the
batches ahead of the request times the last batch's wall time.
Requests may carry a :class:`~repro.resilience.deadline.Deadline`;
expired requests are rejected at admission and again when their batch
is cut -- *before* packing or compute -- so a request never occupies a
panel its caller has already abandoned (``serve.deadline_exceeded``).

The executor callback receives the batched payloads and returns one
**outcome per payload** -- a result or an exception instance -- which
the dispatcher demultiplexes onto the individual futures.  Isolation is
therefore the executor's contract, not the batcher's: returning an
exception for one payload fails only that payload's future (the
service's degrade ladder lives in
:meth:`repro.serve.service.IdentityService._execute_batch`).  Only if
the executor itself *raises* -- a contract violation -- does the whole
batch fail.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import DeadlineExceededError, OverloadedError
from repro.observability.counters import SERVE_DEADLINE_EXCEEDED, SERVE_SHED
from repro.observability.tracer import get_tracer
from repro.resilience.deadline import Deadline

__all__ = ["CoalescingBatcher"]


@dataclass
class _Pending:
    """One queued request: payload, row weight, its caller's future."""

    payload: Any
    rows: int
    future: "Future[Any]"
    deadline: Deadline | None = None


class CoalescingBatcher:
    """Micro-batcher with one dispatcher thread that waits for work.

    Parameters
    ----------
    execute:
        Callback receiving the batch's payloads (admission order) and
        returning one outcome per payload; an outcome that is an
        ``Exception`` instance fails that payload's future only.
    max_rows:
        Row budget per batch.  A cut stops before the request that
        would overrun it, but always takes the first queued request.
    max_queue:
        Admission bound: maximum *queued* requests, including those
        that wait while a batch runs.  ``None`` (default) keeps the
        pre-overload unbounded behavior.
    max_inflight_rows:
        Admission bound: maximum query rows queued + executing.
        ``None`` disables the bound.
    """

    def __init__(
        self,
        execute: Callable[[Sequence[Any]], Sequence[Any]],
        max_rows: int = 1024,
        max_queue: int | None = None,
        max_inflight_rows: int | None = None,
    ) -> None:
        if max_rows <= 0:
            raise ValueError(
                f"CoalescingBatcher: max_rows must be positive, got {max_rows}"
            )
        if max_queue is not None and max_queue <= 0:
            raise ValueError(
                f"CoalescingBatcher: max_queue must be positive, got {max_queue}"
            )
        if max_inflight_rows is not None and max_inflight_rows <= 0:
            raise ValueError(
                f"CoalescingBatcher: max_inflight_rows must be positive, "
                f"got {max_inflight_rows}"
            )
        self._execute = execute
        self.max_rows = max_rows
        self.max_queue = max_queue
        self.max_inflight_rows = max_inflight_rows
        self._cv = threading.Condition()
        self._queue: list[_Pending] = []
        self._inflight_rows = 0
        self._last_batch_s = 0.0
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-batcher", daemon=True
        )
        self._dispatcher.start()

    # -- client side -----------------------------------------------------------

    def _retry_after_ms_locked(self, rows: int) -> int:
        """Shed hint: the last batch's wall time (1 ms at least) per
        batch of backlog ahead, when that backlog should have drained."""
        backlog = sum(p.rows for p in self._queue) + self._inflight_rows + rows
        batches_ahead = max(1, -(-backlog // self.max_rows))
        return max(1, int(1e3 * max(self._last_batch_s, 1e-3) * batches_ahead))

    def submit(
        self,
        payload: Any,
        rows: int = 1,
        deadline: Deadline | None = None,
    ) -> "Future[Any]":
        """Enqueue one request; resolves when its batch has executed.

        Raises :class:`~repro.errors.OverloadedError` when an admission
        bound is exceeded and :class:`~repro.errors.DeadlineExceededError`
        when ``deadline`` has already expired.
        """
        future: "Future[Any]" = Future()
        pending = _Pending(
            payload=payload, rows=max(1, rows), future=future, deadline=deadline
        )
        with self._cv:
            if self._closed:
                raise RuntimeError("CoalescingBatcher: batcher is closed")
            if deadline is not None and deadline.expired:
                get_tracer().counters.add(SERVE_DEADLINE_EXCEEDED)
                raise DeadlineExceededError(
                    "CoalescingBatcher: deadline expired before admission "
                    f"(overran by {deadline.overrun() * 1e3:.1f} ms)",
                    overrun_s=deadline.overrun(),
                )
            if (
                self.max_queue is not None
                and len(self._queue) >= self.max_queue
            ):
                hint = self._retry_after_ms_locked(pending.rows)
                get_tracer().counters.add(SERVE_SHED)
                raise OverloadedError(
                    f"CoalescingBatcher: admission queue full "
                    f"({len(self._queue)} >= {self.max_queue} requests); "
                    f"retry after {hint} ms",
                    retry_after_ms=hint,
                    reason="queue_full",
                )
            if self.max_inflight_rows is not None:
                backlog = (
                    sum(p.rows for p in self._queue) + self._inflight_rows
                )
                if backlog + pending.rows > self.max_inflight_rows:
                    hint = self._retry_after_ms_locked(pending.rows)
                    get_tracer().counters.add(SERVE_SHED)
                    raise OverloadedError(
                        f"CoalescingBatcher: in-flight row budget exceeded "
                        f"({backlog} + {pending.rows} > "
                        f"{self.max_inflight_rows} rows); "
                        f"retry after {hint} ms",
                        retry_after_ms=hint,
                        reason="queue_full",
                    )
            self._queue.append(pending)
            self._cv.notify()
        return future

    @property
    def queued_requests(self) -> int:
        """Requests waiting for a batch cut right now."""
        with self._cv:
            return len(self._queue)

    @property
    def inflight_rows(self) -> int:
        """Query rows inside cut batches that have not finished."""
        with self._cv:
            return self._inflight_rows

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until nothing is queued or executing (graceful drain).

        Returns ``False`` when ``timeout`` elapses first.
        """
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        with self._cv:
            while self._queue or self._inflight_rows:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(timeout=remaining)
            return True

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop admitting, run queued batches, join the dispatcher.

        Raises ``RuntimeError`` when the dispatcher thread fails to
        join within ``timeout`` (which covers the batches it still
        runs) -- a leaked dispatcher means batches may still execute
        after "shutdown", which callers must not be allowed to mistake
        for a clean stop.
        """
        with self._cv:
            already_closed = self._closed
            self._closed = True
            self._cv.notify_all()
        if already_closed and not self._dispatcher.is_alive():
            return
        self._dispatcher.join(timeout=timeout)
        if self._dispatcher.is_alive():
            raise RuntimeError(
                f"CoalescingBatcher.close: dispatcher thread failed to "
                f"join within {timeout}s -- thread leaked"
            )

    def __enter__(self) -> "CoalescingBatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- dispatcher side -------------------------------------------------------

    def _cut_batch_locked(self) -> list[_Pending]:
        """Pop queued requests up to the row budget (admission order),
        marking each future running; cancelled ones are dropped."""
        batch: list[_Pending] = []
        rows = 0
        while self._queue:
            if batch and rows + self._queue[0].rows > self.max_rows:
                break
            item = self._queue.pop(0)
            if item.future.set_running_or_notify_cancel():
                batch.append(item)
                rows += item.rows
        self._inflight_rows += rows
        return batch

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:  # closed and drained
                    return
                batch = self._cut_batch_locked()
                if not batch:  # every request cut was cancelled
                    self._cv.notify_all()
                    continue
            self._run_batch(batch)

    def _run_batch(self, batch: list[_Pending]) -> None:
        try:
            # Expired deadlines are rejected here, before the executor
            # ever packs or computes: a budget that lapsed while the
            # request queued behind a running batch costs no compute.
            live: list[_Pending] = []
            for pending in batch:
                if pending.deadline is not None and pending.deadline.expired:
                    get_tracer().counters.add(SERVE_DEADLINE_EXCEEDED)
                    pending.future.set_exception(
                        DeadlineExceededError(
                            "CoalescingBatcher: deadline expired before "
                            "batch execution (overran by "
                            f"{pending.deadline.overrun() * 1e3:.1f} ms)",
                            overrun_s=pending.deadline.overrun(),
                        )
                    )
                else:
                    live.append(pending)
            if live:
                started = time.perf_counter()
                try:
                    outcomes = list(
                        self._execute([p.payload for p in live])
                    )
                    if len(outcomes) != len(live):
                        raise RuntimeError(
                            f"CoalescingBatcher: execute returned "
                            f"{len(outcomes)} outcomes for {len(live)} "
                            f"payloads"
                        )
                except BaseException as exc:  # contract violation
                    for pending in live:
                        pending.future.set_exception(exc)
                    return
                finally:
                    self._last_batch_s = time.perf_counter() - started
                for pending, outcome in zip(live, outcomes):
                    if isinstance(outcome, BaseException):
                        pending.future.set_exception(outcome)
                    else:
                        pending.future.set_result(outcome)
        finally:
            with self._cv:
                self._inflight_rows -= sum(p.rows for p in batch)
                self._cv.notify_all()
