"""JSON-lines TCP front end + client for :class:`IdentityService`.

One JSON object per line, both directions.  Requests carry an ``op``::

    {"op": "search", "queries": [[0,1,...], ...], "k": 5,
     "tenant": "lab-a", "deadline_ms": 250, "id": 17}
    {"op": "append", "profiles": [[0,1,...], ...]}
    {"op": "stats"}
    {"op": "health"}
    {"op": "ping"}

Responses echo the request's ``id`` (when given) and carry ``ok``::

    {"ok": true, "id": 17, "matches": [[[distance, index], ...], ...]}
    {"ok": false, "error": "...", "kind": "DatasetError"}

Matrices must hold 0/1 integers or booleans; a fraction, an
out-of-range or oversized integer, a string or a ragged row answers
``kind: "DatasetError"`` -- never a silently cast answer.  ``k`` must
be a positive integer, ``deadline_ms`` a finite positive number and
``tenant`` a string.  A search may carry at most the service's
``max_batch_rows`` queries, and the service accounts for at most
:data:`~repro.serve.metrics.MAX_TENANTS` tenants; past either cap the
request answers ``kind: "DatasetError"``.

``deadline_ms`` starts the request's :class:`~repro.resilience.deadline.
Deadline` at decode time, so the budget covers queueing *and* compute;
an expired request answers ``kind: "DeadlineExceededError"`` with
``overrun_ms``.  Shed requests (bounded queue, open breaker, draining
server) answer ``kind: "OverloadedError"`` with ``retry_after_ms`` and
a ``reason`` of ``queue_full``, ``breaker_open`` or ``shutting_down``
-- clients back off instead of piling onto a saturated backend.
``health`` reports :meth:`IdentityService.health` for probes.

**Drain**: :meth:`IdentityServer.request_stop` first stops admitting
new searches (they shed with ``shutting_down``), then waits up to
``drain_grace_s`` for in-flight searches to answer before closing
connections -- accepted work is completed, not dropped.

The server is a thin asyncio shim: each ``search`` awaits the future
returned by :meth:`IdentityService.submit` via ``asyncio.wrap_future``,
so queries from *different connections* that queue behind a running
batch are cut into the same next batch -- the event loop never blocks
on the GEMM, which runs with the rest of the batch on the batcher's one
dispatcher thread.  Errors are per-request: a malformed line or a
failed query answers ``ok: false`` on that line and the connection
stays usable.

:class:`BackgroundServer` runs the server on a daemon thread for tests,
the chaos harness and the serving bench's TCP gates;
:class:`ServiceClient` is the matching blocking client.
``repro.cli serve`` drives :func:`run_server` in the foreground, where
SIGINT and SIGTERM request the same drain.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import socket
import threading
from queue import Empty, Queue
from typing import Any

import numpy as np

from repro.core.streaming import Match
from repro.errors import (
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
)
from repro.observability.counters import SERVE_SHED
from repro.observability.tracer import get_tracer
from repro.resilience.deadline import Deadline
from repro.serve.service import IdentityService

__all__ = [
    "IdentityServer",
    "BackgroundServer",
    "ServiceClient",
    "run_server",
]

#: Refuse absurd single lines instead of buffering them (64 MiB).
MAX_LINE_BYTES = 64 * 1024 * 1024


def _matrix_from_json(name: str, payload: Any) -> np.ndarray:
    """Decode a JSON list-of-lists into a 2-D array, dtype inferred.

    Never forced: casting first would turn ``0.9`` into a silent 0 and
    ``2**70`` into an ``OverflowError``.  Fractions, huge integers and
    strings decode to float, object or string arrays, which the
    service's binary check then rejects with
    :class:`~repro.errors.DatasetError`.
    """
    try:
        arr = np.asarray(payload)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{name}: not a rectangular numeric matrix") from exc
    if arr.ndim != 2:
        raise DatasetError(
            f"{name}: expected a 2-D matrix, got {arr.ndim}-D shape {arr.shape}"
        )
    return arr


def _deadline_from_json(payload: Any) -> "Deadline | None":
    """Decode an optional ``deadline_ms`` field into a started deadline.

    The clock starts *here*, at decode time, so the budget covers the
    request's whole server-side life, the wait in the batch queue
    included.  Python's ``json`` parses ``NaN`` and ``Infinity``, budgets that
    would never expire, and ``true``, which would read as 1 ms; all
    three are rejected.
    """
    if payload is None:
        return None
    try:
        budget_ms = float(payload)
    except (TypeError, ValueError) as exc:
        raise DatasetError(
            f"search.deadline_ms: expected a number of milliseconds, "
            f"got {payload!r}"
        ) from exc
    if isinstance(payload, bool) or not math.isfinite(budget_ms):
        raise DatasetError(
            f"search.deadline_ms: must be a finite number of milliseconds, "
            f"got {payload!r}"
        )
    if budget_ms <= 0:
        raise DatasetError(
            f"search.deadline_ms: must be positive, got {budget_ms}"
        )
    return Deadline.after(budget_ms / 1e3)


def _matches_to_json(matches: list[list[Match]]) -> list[list[list[int]]]:
    return [
        [[m.distance, m.database_index] for m in per_query]
        for per_query in matches
    ]


class IdentityServer:
    """Asyncio TCP server around one :class:`IdentityService`."""

    def __init__(
        self,
        service: IdentityService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: int | None = None,
        drain_grace_s: float = 5.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Stop after this many ``search`` requests (None = run forever);
        #: lets tests and the CLI self-check run the real wire path
        #: without needing an external kill.
        self.max_requests = max_requests
        #: Seconds to wait for in-flight searches when stopping.
        self.drain_grace_s = drain_grace_s
        self._served = 0
        self._inflight = 0
        self._draining = False
        self._server: "asyncio.AbstractServer | None" = None
        self._stop = asyncio.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved after start)."""
        return self.host, self.port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        # Graceful drain: new searches were already shedding with
        # ``shutting_down`` (request_stop set the flag); give in-flight
        # searches a bounded grace window to answer before tearing the
        # connections down.
        deadline = Deadline.after(max(self.drain_grace_s, 0.0))
        while self._inflight > 0 and not deadline.expired:
            await asyncio.sleep(0.01)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Both entry points (run_server, BackgroundServer) give the
        # server its own event loop, so every remaining task is one of
        # our connection handlers -- cancel them instead of leaking
        # "Task was destroyed but it is pending" at loop close.
        current = asyncio.current_task()
        handlers = [t for t in asyncio.all_tasks() if t is not current]
        for task in handlers:
            task.cancel()
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)

    def request_stop(self) -> None:
        self._draining = True
        self._stop.set()

    # -- per-connection loop ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancelled us mid-read; completing normally
            # (instead of staying "cancelled") keeps the stream
            # protocol's done-callback from logging a traceback per
            # still-open connection.
            pass
        except (ConnectionError, OSError):
            # The client vanished mid-exchange (reset, abrupt close).
            # One connection's demise must never take the server down;
            # any answer it was owed is simply undeliverable.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await self._send(
                    writer,
                    {"ok": False, "error": "line too long", "kind": "protocol"},
                )
                return
            if not line:
                return
            response = await self._dispatch(line)
            await self._send(writer, response)
            if (
                self.max_requests is not None
                and self._served >= self.max_requests
            ):
                self.request_stop()
                return

    async def _send(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        request_id: Any = None
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise DatasetError("request must be a JSON object")
            request_id = message.get("id")
            op = message.get("op")
            if op == "ping":
                reply: dict[str, Any] = {"ok": True, "pong": True}
            elif op == "stats":
                reply = {"ok": True, "stats": self.service.stats()}
            elif op == "health":
                health = self.service.health()
                if self._draining:
                    health["state"] = "draining"
                    health["draining"] = True
                reply = {"ok": True, "health": health}
            elif op == "append":
                profiles = _matrix_from_json(
                    "append.profiles", message.get("profiles")
                )
                start, stop = self.service.append(profiles)
                reply = {"ok": True, "start": start, "stop": stop}
            elif op == "search":
                if self._draining:
                    get_tracer().counters.add(SERVE_SHED)
                    raise OverloadedError(
                        "server is draining; not admitting new searches",
                        retry_after_ms=0,
                        reason="shutting_down",
                    )
                queries = _matrix_from_json(
                    "search.queries", message.get("queries")
                )
                deadline = _deadline_from_json(message.get("deadline_ms"))
                future = self.service.submit(
                    queries,
                    k=message.get("k"),
                    tenant=message.get("tenant", "default"),
                    deadline=deadline,
                )
                self._inflight += 1
                try:
                    matches = await asyncio.wrap_future(future)
                finally:
                    self._inflight -= 1
                self._served += 1
                reply = {"ok": True, "matches": _matches_to_json(matches)}
            else:
                raise DatasetError(f"unknown op {op!r}")
        except json.JSONDecodeError as exc:
            reply = {"ok": False, "error": f"bad JSON: {exc}", "kind": "protocol"}
        except OverloadedError as exc:
            reply = {
                "ok": False,
                "error": str(exc),
                "kind": "OverloadedError",
                "retry_after_ms": exc.retry_after_ms,
                "reason": exc.reason,
            }
        except DeadlineExceededError as exc:
            reply = {
                "ok": False,
                "error": str(exc),
                "kind": "DeadlineExceededError",
                "overrun_ms": int(exc.overrun_s * 1e3),
            }
        except ReproError as exc:
            reply = {"ok": False, "error": str(exc), "kind": type(exc).__name__}
        except Exception as exc:  # pragma: no cover - defensive
            reply = {"ok": False, "error": str(exc), "kind": type(exc).__name__}
        if request_id is not None:
            reply["id"] = request_id
        return reply


def run_server(
    service: IdentityService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: int | None = None,
    on_start: "Any | None" = None,
) -> None:
    """Run the server in the foreground until stopped (CLI entry).

    ``on_start(host, port)`` fires once the socket is bound -- the CLI
    prints the listening line there, after ephemeral-port resolution.
    SIGINT and SIGTERM request the drain (:meth:`IdentityServer.request_stop`)
    through event-loop handlers, which take effect even where SIGINT
    was inherited ignored (a ``cmd &`` from a non-interactive shell).
    Where the loop cannot install them (another thread, Windows),
    SIGINT still stops the server through ``KeyboardInterrupt``.
    """

    async def _main() -> None:
        server = IdentityServer(
            service, host=host, port=port, max_requests=max_requests
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        bound_host, bound_port = await server.start()
        if on_start is not None:
            on_start(bound_host, bound_port)
        try:
            await server.serve_until_stopped()
        except asyncio.CancelledError:
            await server._shutdown()
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """An :class:`IdentityServer` on a daemon thread (tests, benches)::

        with BackgroundServer(service) as (host, port):
            client = ServiceClient(host, port)
    """

    def __init__(
        self,
        service: IdentityService,
        host: str = "127.0.0.1",
        port: int = 0,
        start_timeout_s: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.start_timeout_s = start_timeout_s
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._server: "IdentityServer | None" = None
        self._thread: "threading.Thread | None" = None

    def start(self) -> tuple[str, int]:
        started: "Queue[tuple[str, int] | BaseException]" = Queue()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = IdentityServer(self.service, host=self.host, port=self.port)
            self._server = server
            try:
                address = loop.run_until_complete(server.start())
            except BaseException as exc:
                started.put(exc)
                loop.close()
                return
            started.put(address)
            try:
                loop.run_until_complete(server.serve_until_stopped())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="serve-tcp", daemon=True
        )
        self._thread.start()
        try:
            outcome = started.get(timeout=self.start_timeout_s)
        except Empty:
            # Startup wedged (bind hang, loop never came up).  Returning
            # the timeout as-is would leak the server thread: it might
            # still bind later and serve a socket nobody tracks.  Signal
            # the loop to stop, reap the thread, then fail loudly.
            leaked = ""
            try:
                self.stop(timeout=5.0)
            except RuntimeError:
                leaked = "; the thread resisted joining and is leaked"
            raise ReproError(
                f"BackgroundServer.start: server thread did not report an "
                f"address within {self.start_timeout_s}s; stop was "
                f"signalled{leaked}"
            ) from None
        if isinstance(outcome, BaseException):
            self._thread.join(timeout=5.0)
            raise outcome
        self.host, self.port = outcome
        return outcome

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"BackgroundServer.stop: server thread failed to join "
                    f"within {timeout}s -- thread leaked (in-flight work "
                    f"may still hold the socket)"
                )
            self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


class ServiceClient:
    """Blocking JSON-lines client for :class:`IdentityServer`."""

    def __init__(
        self, host: str, port: int, timeout: float = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._request_id = 0

    def _call(self, message: dict[str, Any]) -> dict[str, Any]:
        self._request_id += 1
        message["id"] = self._request_id
        self._file.write(json.dumps(message).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply: dict[str, Any] = json.loads(line)
        if not reply.get("ok"):
            kind = reply.get("kind", "unknown")
            detail = reply.get("error", "no detail")
            if kind == "OverloadedError":
                raise OverloadedError(
                    f"server shed the request: {detail}",
                    retry_after_ms=int(reply.get("retry_after_ms", 0)),
                    reason=str(reply.get("reason", "queue_full")),
                )
            if kind == "DeadlineExceededError":
                raise DeadlineExceededError(
                    f"server reported deadline exceeded: {detail}",
                    overrun_s=float(reply.get("overrun_ms", 0)) / 1e3,
                )
            raise ReproError(f"server error ({kind}): {detail}")
        return reply

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = self._call({"op": "stats"})["stats"]
        return stats

    def health(self) -> dict[str, Any]:
        health: dict[str, Any] = self._call({"op": "health"})["health"]
        return health

    def append(self, profiles: np.ndarray) -> tuple[int, int]:
        reply = self._call(
            {"op": "append", "profiles": np.asarray(profiles).tolist()}
        )
        return int(reply["start"]), int(reply["stop"])

    def search(
        self,
        queries: np.ndarray,
        k: int | None = None,
        tenant: str = "default",
        deadline_ms: "int | float | None" = None,
    ) -> list[list[Match]]:
        message: dict[str, Any] = {
            "op": "search",
            "queries": np.asarray(queries).tolist(),
            "tenant": tenant,
        }
        if k is not None:
            message["k"] = k
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        reply = self._call(message)
        return [
            [Match(distance=int(d), database_index=int(i)) for d, i in per_query]
            for per_query in reply["matches"]
        ]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
